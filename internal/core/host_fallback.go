package core

import (
	"fmt"

	"draid/internal/blockdev"
	"draid/internal/gf256"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/sim"
)

// This file holds the host-side fallback paths used for the rare cases the
// disaggregated machinery does not cover: RAID-6 dual-failure reads (which
// need a GF solve over P and Q) and the full-stripe retry after a timeout
// (§5.4). Both fetch survivor chunks to the host and compute locally —
// expensive in host NIC bandwidth, which is exactly why they are reserved
// for rare paths.

// fbPiece is one survivor segment gathered to the host.
type fbPiece struct {
	member  int
	kind    raid.ChunkKind
	dataIdx int
	buf     parity.Buffer
}

// hostFallbackRead reconstructs failedExt on the host for a RAID-6 stripe
// with two failed members: fetch every survivor's segment (data, P, Q as
// available) and solve with GF arithmetic.
func (h *HostController) hostFallbackRead(stripe int64, failedExt raid.Extent, normal []raid.Extent, asm *assembler, fail *error, done func()) {
	h.stats.HostFallbackReads++
	rOff := h.driveOff(stripe) + failedExt.Off
	rLen := failedExt.Len

	// The op below covers the survivor fetch; normal extents outside the
	// failed extent's range need their own reads, all folded into one
	// completion for the caller.
	var nonOverlap []raid.Extent
	for _, e := range normal {
		if !(e.Off >= failedExt.Off && e.Off+e.Len <= failedExt.Off+failedExt.Len) {
			nonOverlap = append(nonOverlap, e)
		}
	}
	pending := 1 + len(nonOverlap)
	part := func() {
		pending--
		if pending == 0 {
			done()
		}
	}

	// Recoverability: total losses within the stripe must fit the parity
	// budget, and two lost data chunks need Q (RAID-6). The classification is
	// captured NOW: by the time the survivor fetch completes, a concurrent
	// rebuild may have advanced its frontier past this stripe and shrunk the
	// failed set, but the solve must match the pieces actually fetched.
	var lost lostSet
	lostData, lostPar := 0, 0
	for m := 0; m < h.geo.Width; m++ {
		if !h.memberFailed(stripe, m) {
			continue
		}
		switch k, idx := h.geo.Role(stripe, m); k {
		case raid.KindP:
			lost.p = true
			lostPar++
		case raid.KindQ:
			lost.q = true
			lostPar++
		default:
			lost.data = append(lost.data, idx)
			lostData++
		}
	}
	if lostData+lostPar > h.geo.Level.ParityCount() ||
		(lostData >= 2 && h.geo.Level != raid.Raid6) {
		h.rt.Defer(func() {
			*fail = fmt.Errorf("core: stripe %d fallback read: %w", stripe, blockdev.ErrDoubleFault)
			done()
		})
		return
	}

	var pieces []*fbPiece
	byMember := make(map[NodeID]*fbPiece)
	for m := 0; m < h.geo.Width; m++ {
		if h.memberFailed(stripe, m) {
			continue
		}
		kind, idx := h.geo.Role(stripe, m)
		pc := &fbPiece{member: m, kind: kind, dataIdx: idx}
		pieces = append(pieces, pc)
		byMember[h.nodeAt(stripe, m)] = pc
	}
	watch := make([]NodeID, 0, len(pieces))
	for _, pc := range pieces {
		watch = append(watch, h.nodeAt(stripe, pc.member))
	}
	op := h.newStripeOp("fallback-read", stripe, len(pieces), watch,
		func() {
			h.cores.Exec(h.cfg.Costs.Gf(int(rLen))*sim.Duration(len(pieces)), func() {
				out := h.solveDualFailure(failedExt, pieces, lost)
				asm.put(failedExt.VOff, out)
				// Normal extents of this stripe rode along inside the
				// survivor segments.
				for _, e := range normal {
					for _, pc := range pieces {
						if pc.kind == raid.KindData && pc.dataIdx == e.Chunk {
							if pc.buf.Elided() {
								asm.put(e.VOff, parity.Sized(int(e.Len)))
							} else if e.Off >= failedExt.Off && e.Off+e.Len <= failedExt.Off+failedExt.Len {
								asm.put(e.VOff, pc.buf.Slice(int(e.Off-failedExt.Off), int(e.Len)))
							}
						}
					}
				}
				part()
			})
		},
		func(missing []NodeID) {
			*fail = fmt.Errorf("core: stripe %d: members %v lost during fallback read: %w",
				stripe, missing, blockdev.ErrDegraded)
			part()
		},
	)
	op.onPayload = func(from NodeID, _ nvmeof.Command, b parity.Buffer) {
		b = b.Disown() // kept for the solve
		if pc := byMember[from]; pc != nil {
			pc.buf = b
		}
	}
	op.onMediaErr = func(member int, _ nvmeof.Command) {
		// A survivor's segment is unreadable: re-drive this extent (and the
		// overlapping normal extents it was carrying) through the generic
		// media gather, which excludes the bad member from the solve.
		var overlap []raid.Extent
		for _, e := range normal {
			if e.Off >= failedExt.Off && e.Off+e.Len <= failedExt.Off+failedExt.Len {
				overlap = append(overlap, e)
			}
		}
		h.mediaFallbackGroup(stripe, []raid.Extent{failedExt}, overlap, member, asm, fail, part)
	}
	for _, pc := range pieces {
		// Fetch each survivor segment over the union of the failed extent
		// and any normal extent on that member, so normal reads need no
		// extra round trip. For simplicity the fallback fetches the failed
		// extent's range, which covers the aligned benchmark workloads;
		// non-overlapping normal extents are re-read below.
		h.send(op, h.nodeAt(stripe, pc.member), nvmeof.Command{
			Opcode: nvmeof.OpRead, Offset: rOff, Length: rLen,
		}, parity.Buffer{})
	}
	for _, e := range nonOverlap {
		h.normalReadExtent(e, asm, fail, part)
	}
}

// lostSet is the failed-member classification of one stripe, frozen at the
// instant a fallback read was issued.
type lostSet struct {
	p, q bool
	data []int
}

// solveDualFailure recovers failedExt's data chunk from survivor pieces.
// lost is the issue-time classification matching how pieces were gathered.
func (h *HostController) solveDualFailure(failedExt raid.Extent, pieces []*fbPiece, lost lostSet) parity.Buffer {
	rLen := int(failedExt.Len)
	pLost, qLost, lostData := lost.p, lost.q, lost.data
	var pBuf, qBuf parity.Buffer
	var dataBufs []parity.Buffer
	var dataIdx []int
	for _, pc := range pieces {
		if pc.buf.Elided() {
			return parity.Sized(rLen)
		}
		switch pc.kind {
		case raid.KindP:
			pBuf = pc.buf
		case raid.KindQ:
			qBuf = pc.buf
		default:
			dataBufs = append(dataBufs, pc.buf)
			dataIdx = append(dataIdx, pc.dataIdx)
		}
	}
	switch {
	case pLost && qLost:
		panic("core: dual-parity failure routed to data reconstruction")
	case qLost:
		// Data + Q lost ⇒ plain P-XOR recovery.
		acc := pBuf.Clone()
		for _, d := range dataBufs {
			acc = parity.XORInto(acc, d)
		}
		return acc
	case pLost:
		// Data + P lost ⇒ recover from Q.
		survivors := make([][]byte, len(dataBufs))
		for i, d := range dataBufs {
			survivors[i] = d.Data()
		}
		out := make([]byte, rLen)
		gf256.RecoverOneDataFromQ(out, qBuf.Data(), survivors, dataIdx, failedExt.Chunk)
		return parity.FromBytes(out)
	default:
		// Two data chunks lost ⇒ full P+Q solve. RecoverTwoData keeps the
		// association dx↔x, dy↔y regardless of argument order.
		survivors := make([][]byte, len(dataBufs))
		for i, d := range dataBufs {
			survivors[i] = d.Data()
		}
		dx := make([]byte, rLen)
		dy := make([]byte, rLen)
		gf256.RecoverTwoData(dx, dy, pBuf.Data(), qBuf.Data(), survivors, dataIdx, lostData[0], lostData[1])
		if failedExt.Chunk == lostData[0] {
			return parity.FromBytes(dx)
		}
		return parity.FromBytes(dy)
	}
}
