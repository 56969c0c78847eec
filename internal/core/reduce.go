package core

import "draid/internal/sim"

// Reduce says who reduces a stripe's parity — the storage targets, peer to
// peer, or the host — and what a host-centric controller's stripe handling
// costs. The zero value is dRAID. SPDK and Linux build the comparison systems
// of §9.1 on the same stripe-op engine: the host reduces every partial write
// and every degraded read, so each operand crosses its NIC (2× outbound
// writes, N× inbound degraded reads).
type Reduce struct {
	// Writes places partial-write parity. HostWrites makes the host reduce
	// degraded reads and rebuilds too (hostReduces).
	Writes WriteReduce
	// LockReads takes the stripe lock around normal reads (the SPDK POC;
	// dRAID's reads are lock-free, §8).
	LockReads bool
	// Raid5d runs all stripe handling on one dedicated core (Linux MD's
	// raid5d thread) instead of the host pool.
	Raid5d bool
	// PerStripeOp is worker time per write or degraded-read stripe operation
	// (stripe cache, bitmap, request bookkeeping); PerChunkOp is added per
	// member of the stripe.
	PerStripeOp, PerChunkOp sim.Duration
	// CopyBps, when nonzero, replaces the XOR and GF rates of host parity
	// work (Linux's stripe-cache memcpy+xor is far slower than ISA-L).
	CopyBps float64
	// ReadPerIO is block-stack time before each plain read is sent.
	ReadPerIO sim.Duration
	// DegradedPerPage is stripe-cache time per 4 KiB page of a degraded read
	// (Linux MD reconstructs in page-sized units).
	DegradedPerPage sim.Duration
}

// WriteReduce places the parity work of a partial-stripe write. Full-stripe
// writes compute parity on the host whatever it says (§3).
type WriteReduce uint8

const (
	// PeerWrites reduces on the parity targets (§5): the host sends only the
	// new data.
	PeerWrites WriteReduce = iota
	// HostWrites pre-reads what the write mode needs — old data and old
	// parity for read-modify-write, the untouched chunks for
	// reconstruct-write — one at a time (the POC's stripe state machine
	// walks its read states in turn; §5.3's pipeline is the contrast), and
	// computes parity on the host.
	HostWrites
	// HostStripeWrites pre-reads every data chunk of the written range and
	// recomputes parity on the host: the consistency path dRAID itself takes
	// for retries and degraded corner cases, and the ablation-hostparity arm.
	HostStripeWrites
)

// SPDK is the enhanced SPDK RAID-5/6 POC of §9.1: user-space and efficient,
// but all parity work on the host, with stripe-locked reads and serial
// pre-reads.
func SPDK() Reduce {
	return Reduce{Writes: HostWrites, LockReads: true}
}

// Linux is Linux software RAID (the MD driver): SPDK's data flow plus kernel
// block-stack costs and one raid5d thread serializing all stripe handling.
func Linux() Reduce {
	return Reduce{
		Writes: HostWrites, Raid5d: true,
		PerStripeOp:     40 * sim.Microsecond,
		PerChunkOp:      6 * sim.Microsecond,
		CopyBps:         5e9, // stripe-cache copies + xor
		ReadPerIO:       8 * sim.Microsecond,
		DegradedPerPage: 25 * sim.Microsecond,
	}
}

// hostReduces reports whether the host reduces every partial write and
// every degraded read (a host-centric controller): its degraded reads and
// rebuilds gather survivors to the host, which solves them (hostReadGroup),
// instead of a peer reduce tree, and its write pre-reads go out serially.
func (r Reduce) hostReduces() bool { return r.Writes == HostWrites }

// stripeCost is the profile's fixed worker time per stripe operation.
func (h *HostController) stripeCost() sim.Duration {
	r := h.cfg.Reduce
	return r.PerStripeOp + sim.Duration(h.geo.Width)*r.PerChunkOp
}

// xorCost and gfCost convert bytes of host parity work to CPU time.
func (h *HostController) xorCost(n int) sim.Duration {
	if r := h.cfg.Reduce.CopyBps; r > 0 {
		return sim.Duration(float64(n) / r * 1e9)
	}
	return h.cfg.Costs.Xor(n)
}

func (h *HostController) gfCost(n int) sim.Duration {
	if r := h.cfg.Reduce.CopyBps; r > 0 {
		return sim.Duration(float64(n) / r * 1e9)
	}
	return h.cfg.Costs.Gf(n)
}

// solveCost is the host's CPU time to solve lost pieces of an n-byte range
// from readers survivors: a GF pass per erasure plus one on dRAID, which
// decodes on the host only off its peer path; the profile's per-stripe,
// XOR and per-page stripe-cache costs on a host-centric controller.
func (h *HostController) solveCost(n int64, readers, lost int) sim.Duration {
	r := h.cfg.Reduce
	if !r.hostReduces() {
		return h.cfg.Costs.Gf(int(n)) * sim.Duration(lost+1)
	}
	const page = 4 << 10
	pages := (n + page - 1) / page
	return h.stripeCost() + h.xorCost(int(n)*readers) + sim.Duration(pages)*r.DegradedPerPage
}
