// Package baseline implements the paper's comparison systems over the SAME
// simulated substrate as dRAID:
//
//   - Host: a host-centric parity-RAID controller in two styles — the Intel
//     SPDK RAID-5 POC (user-space, efficient, but all parity work on the
//     host: 2× outbound write traffic, N× inbound degraded-read traffic,
//     stripe-locked normal reads) and Linux MD (same data flow plus kernel
//     block-stack overhead and a single raid5d worker thread serializing
//     all stripe handling).
//   - SingleMachine: the RAID controller co-located with its drives on one
//     storage server (Table 1's first column): 1× network overhead but no
//     server fault tolerance.
//
// Both speak only standard NVMe-oF (Read/Write) to the unmodified
// server-side controllers.
package baseline

import (
	"draid/internal/core"
	"draid/internal/cpu"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/sim"
)

// Style captures what differs between the host-centric baselines.
type Style struct {
	// Name labels output ("SPDK", "Linux").
	Name string
	// LockReads serializes normal reads against writes on the same stripe
	// (the SPDK POC behaviour §8; dRAID removes it).
	LockReads bool
	// Raid5dSingleCore routes every write and degraded-read stripe
	// operation through one dedicated worker core (Linux MD's raid5d).
	Raid5dSingleCore bool
	// PerStripeOp is fixed worker time per stripe operation (stripe cache
	// management, bitmap update, request bookkeeping).
	PerStripeOp sim.Duration
	// PerChunkOp is additional worker time per member chunk touched.
	PerChunkOp sim.Duration
	// CopyBps, when nonzero, replaces the XOR/GF rate for parity work
	// (Linux's stripe-cache memcpy+xor path is much slower than ISA-L).
	CopyBps float64
	// ReadPerIO is block-stack time per normal read I/O on the host pool.
	ReadPerIO sim.Duration
	// SerialWriteReads issues a write's pre-reads one at a time (the SPDK
	// POC's stripe state machine walks its read states sequentially;
	// dRAID's §5.3 pipeline is the contrast).
	SerialWriteReads bool
	// DegradedPageSize and DegradedPerPage model Linux MD's stripe-cache
	// processing of reconstruction in page-sized units: each page of a
	// degraded read costs DegradedPerPage of raid5d time.
	DegradedPageSize int64
	DegradedPerPage  sim.Duration
}

// SPDKStyle models the enhanced SPDK RAID-5/6 POC of §9.1.
func SPDKStyle() Style {
	return Style{
		Name:             "SPDK",
		LockReads:        true,
		SerialWriteReads: true,
	}
}

// LinuxStyle models Linux software RAID (MD driver).
func LinuxStyle() Style {
	return Style{
		Name:             "Linux",
		LockReads:        false,
		Raid5dSingleCore: true,
		SerialWriteReads: true,
		PerStripeOp:      40 * sim.Microsecond,
		PerChunkOp:       6 * sim.Microsecond,
		CopyBps:          5e9, // stripe-cache copies + xor
		ReadPerIO:        8 * sim.Microsecond,
		DegradedPageSize: 4 << 10,
		DegradedPerPage:  25 * sim.Microsecond,
	}
}

// Config parameterizes a baseline host.
type Config struct {
	Geometry raid.Geometry
	Costs    cpu.Costs
	Style    Style
	// HostCores sizes the host reactor pool (default 4).
	HostCores int
	// Deadline bounds each stripe op (default 1s).
	Deadline sim.Duration
}

// Host is a host-centric RAID controller: it is the only place parity is
// computed, and every byte of every pre-read crosses the host NIC.
type Host struct {
	eng    *sim.Engine
	fab    *core.Fabric
	geo    raid.Geometry
	cfg    Config
	cores  *cpu.Pool
	raid5d *cpu.Core // Linux's single worker, when enabled

	size    int64
	nextID  uint64
	stripeQ map[int64]*stripeQueue
	pending map[uint64]*op
	failed  map[int]bool

	stats Stats
}

// Stats counts baseline host events.
type Stats struct {
	Reads, Writes      int64
	RMWWrites          int64
	RCWWrites          int64
	FullStripeWrites   int64
	DegradedReads      int64
	Timeouts, Retries  int64
	UserBytesRead      int64
	UserBytesWritten   int64
	StripeLockConflict int64
}

type stripeQueue struct {
	busy    bool
	waiters []func()
}

type op struct {
	id        uint64
	remaining int
	doneFn    func()
	failedFn  func(missing []int)
	onPayload func(from int, off, length int64, b parity.Buffer)
	timer     sim.Timer
	done      bool
	watch     []int
}
