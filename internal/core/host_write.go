package core

import (
	"fmt"
	"slices"

	"draid/internal/blockdev"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/sim"
)

// Write implements blockdev.Device: per-volume QoS admission when a shared
// arbiter is configured, then the real write.
func (h *HostController) Write(off int64, data parity.Buffer, cb func(error)) {
	if q := h.cfg.QoS; q != nil && !h.crashed {
		cost := qosCost(int64(data.Len()))
		q.Admit(h.cfg.Volume, cost, func() {
			h.writeIO(off, data, func(err error) {
				q.Done(h.cfg.Volume, cost)
				cb(err)
			})
		})
		return
	}
	h.writeIO(off, data, cb)
}

// writeIO is the write path proper. Each affected stripe is admitted through
// the per-stripe write queue (§3), then executed in the cheapest mode:
// full-stripe (host-side parity), disaggregated read-modify-write, or
// disaggregated reconstruct-write (§5). Degraded stripes are handled per the
// rules documented on stripeWrite.
//
// The caller gets its buffer back at the ack, but capsules carrying its bytes
// may outlive the ack — a write duplicated by the fabric, or one stalled in a
// slow drive's queue, reads its payload when it finally lands. So the
// write-through path takes the datapath's one private copy of the caller's
// bytes here, and every capsule is a slice of that copy.
func (h *HostController) writeIO(off int64, data parity.Buffer, cb func(error)) {
	if h.crashed {
		return
	}
	if h.fenced {
		h.rt.Defer(func() { cb(h.fenceError("write")) })
		return
	}
	n := int64(data.Len())
	if err := blockdev.CheckRange(off, n, h.size); err != nil {
		h.rt.Defer(func() { cb(err) })
		return
	}
	h.stats.Writes++
	h.stats.UserBytesWritten += n
	if n == 0 {
		h.rt.Defer(func() { cb(nil) })
		return
	}
	if h.stage != nil {
		// Write-back staging: sub-stripe groups are absorbed and acknowledged
		// without drive I/O; full-stripe groups write through (stage.go).
		h.stage.write(off, data, cb)
		h.cores.Exec(h.cfg.Costs.PerUser, func() {})
		return
	}
	w := h.userIOs.Get()
	w.writeCB, w.data = cb, data.Clone()
	w.exts = h.geo.AppendSplit(w.exts[:0], off, n)
	// The range is contiguous, so its stripes are too.
	w.pending = int(w.exts[len(w.exts)-1].Stripe-w.exts[0].Stripe) + 1
	for rest := w.exts; len(rest) > 0; {
		group := raid.StripeRun(rest)
		rest = rest[len(group):]
		h.writeStripeGroup(off, group[0].Stripe, group, w.data, w.writePartFn)
	}
	h.cores.Exec(h.cfg.Costs.PerUser, func() {})
}

// groupWrite is one stripe's share of a write — a user write's stripe group
// or a destage — from admission to its end: the extents, the data they index
// into, the §5.4 attempt count, scratch for the member writes, and the op
// steps, bound once per slab slot.
type groupWrite struct {
	h      *HostController
	off    int64 // the user write's device offset; extents' VOff are relative to it
	stripe int64
	exts   []raid.Extent
	data   parity.Buffer
	// admitted: writeStripeGroup took the stripe lock and marked the stripe
	// dirty, and end undoes both (a destage holds its own).
	admitted bool
	attempt  int
	done     func(error)

	pAlive, qAlive bool
	chunks         []parity.Buffer
	writes         []memberWrite

	runFn, okFn, retryFn, fullFn func()
	timeoutFn                    func([]NodeID)
}

func (h *HostController) makeGroupWrite() *groupWrite {
	g := &groupWrite{h: h}
	g.runFn, g.okFn, g.retryFn, g.fullFn = g.run, g.ok, g.retry, g.writeFull
	g.timeoutFn = g.timeout
	return g
}

func (h *HostController) groupWrite(off, stripe int64, exts []raid.Extent, data parity.Buffer, admitted bool, done func(error)) *groupWrite {
	g := h.groupWrites.Get()
	g.off, g.stripe, g.exts, g.data, g.admitted, g.attempt, g.done = off, stripe, exts, data, admitted, 0, done
	return g
}

// writeStripeGroup admits one stripe's extent group through the per-stripe
// write queue and executes it via stripeWrite. With staging enabled it is the
// write-through path: under the stripe lock it supersedes any staged live
// data for the written ranges (a destage snapshot cannot coexist — destages
// hold the same lock), and it invalidates the clean-read cache.
func (h *HostController) writeStripeGroup(off, stripe int64, group []raid.Extent, data parity.Buffer, done func(error)) {
	h.acquireStripe(stripe, h.groupWrite(off, stripe, group, data, true, done).runFn)
}

func (g *groupWrite) run() {
	h := g.h
	if h.stage != nil {
		h.stage.drop(g.stripe, g.exts)
	}
	if h.cache != nil {
		for _, e := range g.exts {
			h.cache.invalidate(g.off+e.VOff, e.Len)
		}
	}
	h.markDirty(g.stripe)
	h.stripeWrite(g)
}

func (g *groupWrite) ok() { g.end(nil) }

// end finishes the group: an admitted one brings back lost bytes it
// overwrote — the new data is re-encoded into the stripe's redundancy —
// clears its dirty mark and passes the stripe lock on. The record goes back
// before done runs.
func (g *groupWrite) end(err error) {
	h := g.h
	if g.admitted {
		if err == nil && !h.lost.Empty() {
			for _, e := range g.exts {
				h.lost.Remove(g.off+e.VOff, e.Len)
			}
		}
		h.clearDirty(g.stripe)
		h.releaseStripe(g.stripe)
	}
	done := g.done
	clear(g.chunks)
	clear(g.writes)
	g.exts, g.data, g.done, g.chunks, g.writes = nil, parity.Buffer{}, nil, g.chunks[:0], g.writes[:0]
	h.groupWrites.Put(g)
	done(err)
}

// stripeWrite executes the write for one stripe. Degraded rules:
//
//   - a full-stripe write with no more members failed than the stripe has
//     parity → full-stripe mode whichever they are: nothing needs reading;
//   - no failed member in this stripe's chunk set → normal mode decision;
//   - only parity member(s) failed → same flow minus the failed reducer(s);
//     RAID-5 with P failed degenerates to plain data writes;
//   - a failed DATA chunk untouched by the write → forced RMW (its old value
//     stays encoded in parity; deltas from written chunks suffice);
//   - a failed DATA chunk touched by the write → reconstruct-write with the
//     host supplying the failed chunk's new data to the reducer(s), valid
//     when that chunk's written range covers the whole union; otherwise, or
//     with two failed data chunks touched, the host fallback restores
//     consistency centrally — or refuses a stripe past its parity budget.
//
// Reduce.Writes then says who reduces the RMW or RCW: the targets, peer to
// peer, or the host writer; HostStripeWrites sends every partial write down
// the fallback. g.attempt counts §5.4 timeout-driven retries; any retry goes
// through the host fallback path, which never depends on the expired
// operation's partial state.
func (h *HostController) stripeWrite(g *groupWrite) {
	stripe, exts := g.stripe, g.exts
	fallback := func() {
		h.stats.HostFallbackWrites++
		h.hostWrite(g, h.dataMembers(stripe))
	}
	if g.attempt > 0 {
		fallback()
		return
	}

	mode := h.geo.DecideWriteMode(exts)
	g.pAlive, g.qAlive = h.parityAlive(stripe)
	if mode == raid.ModeFull && h.failedIn(stripe) <= h.geo.Level.ParityCount() {
		// Every data chunk is in hand, so parity is computed here and nothing
		// is read — whichever members inside the parity budget are lost.
		h.stats.FullStripeWrites++
		h.fullStripeWrite(g)
		return
	}

	touchedFailed, fe := 0, raid.Extent{}
	for _, e := range exts {
		if h.memberFailed(stripe, h.geo.DataDrive(stripe, e.Chunk)) {
			if touchedFailed++; touchedFailed == 1 {
				fe = e
			}
		}
	}
	anyFailedDataUntouched := false
	for c := 0; c < h.geo.DataChunks(); c++ {
		if _, touched := chunkExtent(exts, c); !touched && h.memberFailed(stripe, h.geo.DataDrive(stripe, c)) {
			anyFailedDataUntouched = true
		}
	}

	var contrib *raid.Extent // the failed chunk whose new data the host contributes
	switch {
	case touchedFailed == 0 && !anyFailedDataUntouched:
		// All data chunks of this stripe are healthy.
		if !g.pAlive && h.geo.Level == raid.Raid5 {
			h.plainWrites(g)
			return
		}
	case touchedFailed == 0:
		// A failed data chunk exists but is untouched: RMW only.
		if !g.pAlive && !g.qAlive {
			h.plainWrites(g)
			return
		}
		mode = raid.ModeRMW
	case touchedFailed == 1 && !anyFailedDataUntouched && (g.pAlive || g.qAlive):
		if uLo, uHi := raid.UnionRange(exts); fe.Off != uLo || fe.Off+fe.Len != uHi {
			fallback()
			return
		}
		mode, contrib = raid.ModeRCW, &fe
	default:
		fallback()
		return
	}

	if h.cfg.Reduce.Writes == HostStripeWrites {
		fallback()
		return
	}
	if mode == raid.ModeRMW {
		h.stats.RMWWrites++
	} else {
		h.stats.RCWWrites++
	}
	switch {
	case h.cfg.Reduce.Writes == HostWrites:
		h.hostWrite(g, h.preReads(stripe, exts, mode))
	case mode == raid.ModeRMW:
		h.rmwWrite(g)
	default:
		h.rcwWrite(g, contrib)
	}
}

// chunkExtent returns the extent of exts on data chunk c, if there is one.
func chunkExtent(exts []raid.Extent, c int) (raid.Extent, bool) {
	for _, e := range exts {
		if e.Chunk == c {
			return e, true
		}
	}
	return raid.Extent{}, false
}

// parityAlive reports which of stripe's parity members are in service: P,
// and — RAID-6 only — Q.
func (h *HostController) parityAlive(stripe int64) (p, q bool) {
	p = !h.memberFailed(stripe, h.geo.PDrive(stripe))
	q = h.geo.Level == raid.Raid6 && !h.memberFailed(stripe, h.geo.QDrive(stripe))
	return p, q
}

// failedIn counts stripe's failed members, data and parity alike.
func (h *HostController) failedIn(stripe int64) int {
	n := 0
	for m := 0; m < h.geo.Width; m++ {
		if h.memberFailed(stripe, m) {
			n++
		}
	}
	return n
}

// timeout implements §5.4: after a timeout, the host waits for terminal
// states (the op's deadline), marks truly-down targets failed, and retries as
// a full-stripe-consistent host write until the per-op budget
// (Config.MaxRetries) runs out. Transient failures (no node actually down —
// network jitter, dropped messages) take the same retry, which is safe
// because the retry never depends on the expired operation's partial state.
// Faulting members also reach the health sink via the op deadline path.
func (g *groupWrite) timeout(missing []NodeID) {
	h := g.h
	if h.fenced {
		// Stood down mid-operation (a bdev answered StatusStaleEpoch, or the
		// lease ran out): retrying would only collect more rejections.
		// Surface the typed error.
		g.end(h.fenceError(fmt.Sprintf("stripe %d write", g.stripe)))
		return
	}
	for _, m := range missing {
		h.failNode(m)
	}
	if g.attempt >= h.maxRetries() {
		g.end(fmt.Errorf("core: stripe %d write: retries exhausted: %w", g.stripe, blockdev.ErrTimeout))
		return
	}
	h.stats.Retries++
	g.attempt++
	h.retryAfter(g.attempt-1, g.retryFn)
}

func (g *groupWrite) retry() { g.h.stripeWrite(g) }

// memberWrite is one plain write to a stripe member, chunk-relative.
type memberWrite struct {
	member int
	off    int64
	buf    parity.Buffer
}

// writeMembers is the one write fan-out: an OpWrite per entry, in order —
// the caller has already left failed members out — and done once every one
// is acknowledged, failed on the deadline or an error completion. Nothing to
// write completes on the next turn.
func (h *HostController) writeMembers(kind string, stripe int64, writes []memberWrite, done func(), failed func(missing []NodeID)) {
	if len(writes) == 0 {
		h.rt.Defer(done)
		return
	}
	op := h.beginOp(kind, stripe, done, failed)
	for _, w := range writes {
		h.send(op, h.nodeAt(stripe, w.member), oneReply, nvmeof.Command{
			Opcode: nvmeof.OpWrite, Offset: h.driveOff(stripe) + w.off, Length: int64(w.buf.Len()),
		}, w.buf)
	}
}

// extentWrites appends the data writes that put exts' bytes of data on
// their members, leaving out the failed ones.
func (h *HostController) extentWrites(writes []memberWrite, stripe int64, exts []raid.Extent, data parity.Buffer) []memberWrite {
	for _, e := range exts {
		if m := h.geo.DataDrive(stripe, e.Chunk); !h.memberFailed(stripe, m) {
			writes = append(writes, memberWrite{m, e.Off, data.Slice(int(e.VOff), int(e.Len))})
		}
	}
	return writes
}

// parityWrites computes stripe's parity from chunks — every data chunk's
// content at chunk-relative offset off — and appends its write to each parity
// member in service. parityCost is the CPU time to charge first.
func (h *HostController) parityWrites(writes []memberWrite, stripe, off int64, chunks []parity.Buffer, pAlive, qAlive bool) []memberWrite {
	p, q := parity.ComputeParity(chunks, pAlive, qAlive)
	if pAlive {
		writes = append(writes, memberWrite{h.geo.PDrive(stripe), off, p})
	}
	if qAlive {
		writes = append(writes, memberWrite{h.geo.QDrive(stripe), off, q})
	}
	return writes
}

func (h *HostController) parityCost(n int64, withQ bool) sim.Duration {
	work := h.xorCost(int(n) * h.geo.DataChunks())
	if withQ {
		work += h.gfCost(int(n) * h.geo.DataChunks())
	}
	return work
}

// fullStripeWrite computes parity on the host (§3: disaggregation gains
// nothing for full-stripe writes) and issues plain writes to every healthy
// member.
func (h *HostController) fullStripeWrite(g *groupWrite) {
	cs := h.geo.ChunkSize
	g.chunks = slices.Grow(g.chunks, h.geo.DataChunks())[:h.geo.DataChunks()] // end cleared it
	for _, e := range g.exts {
		if e.Off != 0 || e.Len != cs {
			panic("core: full-stripe write with partial extent")
		}
		g.chunks[e.Chunk] = g.data.Slice(int(e.VOff), int(cs))
	}
	g.writes = h.extentWrites(g.writes[:0], g.stripe, g.exts, g.data)
	h.worker.Exec(h.stripeCost()+h.parityCost(cs, g.qAlive), g.fullFn)
}

// writeFull is fullStripeWrite once the host has spent the parity's CPU time.
func (g *groupWrite) writeFull() {
	h := g.h
	g.writes = h.parityWrites(g.writes, g.stripe, 0, g.chunks, g.pAlive, g.qAlive)
	h.writeMembers("full-stripe-write", g.stripe, g.writes, g.okFn, g.timeoutFn)
}

// plainWrites issues bare data writes with no parity maintenance — the
// degenerate degraded mode when no parity member of the stripe survives —
// after the profile's stripe handling, if it has any.
func (h *HostController) plainWrites(g *groupWrite) {
	write := func() {
		g.writes = h.extentWrites(g.writes[:0], g.stripe, g.exts, g.data)
		h.writeMembers("plain-write", g.stripe, g.writes, g.okFn, g.timeoutFn)
	}
	if c := h.stripeCost(); c > 0 {
		h.worker.Exec(c, write)
		return
	}
	write()
}

// parityDests returns the NextDest/NextDest2 routing for a stripe. These are
// wire-level node indices, so rebuild indirection applies.
func (h *HostController) parityDests(stripe int64) (pDest, qDest uint16) {
	pDest, qDest = NoDest, NoDest
	p, q := h.parityAlive(stripe)
	if p {
		pDest = uint16(h.nodeAt(stripe, h.geo.PDrive(stripe)))
	}
	if q {
		qDest = uint16(h.nodeAt(stripe, h.geo.QDrive(stripe)))
	}
	return pDest, qDest
}

// rmwWrite runs the disaggregated read-modify-write of §5: PartialWrite to
// each written data bdev, Parity to the reducer(s), peer-to-peer delta
// forwarding, non-blocking reduce.
func (h *HostController) rmwWrite(g *groupWrite) {
	stripe, data := g.stripe, g.data
	base := h.driveOff(stripe)
	uLo, uHi := raid.UnionRange(g.exts)
	union := nvmeof.SGE{Off: base + uLo, Len: uHi - uLo}
	pDest, qDest := h.parityDests(stripe)
	op := h.beginOp("rmw-write", stripe, g.okFn, g.timeoutFn)

	// One bdevD callback per written chunk, one per reducer.
	for _, e := range g.exts {
		t := h.nodeAt(stripe, h.geo.DataDrive(stripe, e.Chunk))
		h.send(op, t, oneReply, nvmeof.Command{
			Opcode:  nvmeof.OpPartialWrite,
			Subtype: nvmeof.SubRMW,
			Offset:  base + e.Off, Length: e.Len,
			FwdOffset: base + e.Off, FwdLength: e.Len,
			NextDest: pDest, NextDest2: qDest,
			DataIdx: uint16(e.Chunk),
			SGL:     h.sgl(union),
		}, data.Slice(int(e.VOff), int(e.Len)))
	}
	parityCmd := nvmeof.Command{
		Opcode:  nvmeof.OpParity,
		Subtype: nvmeof.SubRMW,
		Offset:  union.Off, Length: union.Len,
		WaitNum: uint16(len(g.exts)),
		DataIdx: NoScale,
	}
	if pDest != NoDest {
		h.send(op, NodeID(pDest), oneReply, parityCmd, parity.Buffer{})
	}
	if qDest != NoDest {
		h.send(op, NodeID(qDest), oneReply, parityCmd, parity.Buffer{})
	}
}

// rcwWrite runs the disaggregated reconstruct-write: written chunks
// contribute their new content, untouched chunks their stored content, and
// parity is recomputed over the union with no old-parity preload.
// hostContrib, when non-nil, is the failed chunk whose new data the host
// contributes directly to the reducer(s) (degraded writes).
func (h *HostController) rcwWrite(g *groupWrite, hostContrib *raid.Extent) {
	stripe, data := g.stripe, g.data
	base := h.driveOff(stripe)
	uLo, uHi := raid.UnionRange(g.exts)
	union := nvmeof.SGE{Off: base + uLo, Len: uHi - uLo}
	pDest, qDest := h.parityDests(stripe)
	op := h.beginOp("rcw-write", stripe, g.okFn, g.timeoutFn)

	// Writers first, then readers, each in chunk order: alive participants
	// only.
	participants := 0
	for _, writers := range [2]bool{true, false} {
		for c := 0; c < h.geo.DataChunks(); c++ {
			d := h.geo.DataDrive(stripe, c)
			e, written := chunkExtent(g.exts, c)
			if written != writers || h.memberFailed(stripe, d) {
				continue
			}
			participants++
			if written {
				h.send(op, h.nodeAt(stripe, d), oneReply, nvmeof.Command{
					Opcode:  nvmeof.OpPartialWrite,
					Subtype: nvmeof.SubRWWrite,
					Offset:  base + e.Off, Length: e.Len,
					FwdOffset: union.Off, FwdLength: union.Len,
					NextDest: pDest, NextDest2: qDest,
					DataIdx: uint16(c),
					SGL:     h.sgl(union),
				}, data.Slice(int(e.VOff), int(e.Len)))
				continue
			}
			// A reader answers the reducer(s) only; their completions cover it.
			h.send(op, h.nodeAt(stripe, d), noReply, nvmeof.Command{
				Opcode:  nvmeof.OpPartialWrite,
				Subtype: nvmeof.SubRWRead,
				Offset:  union.Off, Length: 0,
				FwdOffset: union.Off, FwdLength: union.Len,
				NextDest: pDest, NextDest2: qDest,
				DataIdx: uint16(c),
				SGL:     h.sgl(union),
			}, parity.Buffer{})
		}
	}
	parityCmd := nvmeof.Command{
		Opcode:  nvmeof.OpParity,
		Subtype: nvmeof.SubNone,
		Offset:  union.Off, Length: union.Len,
		WaitNum: uint16(participants),
		DataIdx: NoScale,
	}
	var contribPayload parity.Buffer
	if hostContrib != nil {
		e := *hostContrib
		parityCmd.FwdOffset = base + e.Off
		parityCmd.FwdLength = e.Len
		contribPayload = data.Slice(int(e.VOff), int(e.Len)) // lent read-only, like every command payload
	}
	if pDest != NoDest {
		h.send(op, NodeID(pDest), oneReply, parityCmd, contribPayload)
	}
	if qDest != NoDest {
		qCmd := parityCmd
		if hostContrib != nil {
			qCmd.DataIdx = uint16(hostContrib.Chunk)
		}
		h.send(op, NodeID(qDest), oneReply, qCmd, contribPayload)
	}
}

// dataMembers lists stripe's data members in chunk order.
func (h *HostController) dataMembers(stripe int64) []int {
	ms := make([]int, h.geo.DataChunks())
	for c := range ms {
		ms[c] = h.geo.DataDrive(stripe, c)
	}
	return ms
}

// preReads lists, in issue order, the members a host-reduced write of mode
// reads over the written union: for RMW the written chunks and the parity
// in service (old data plus old parity, SPDK's 2× in), for RCW the data
// chunks the write does not cover.
func (h *HostController) preReads(stripe int64, exts []raid.Extent, mode raid.WriteMode) []int {
	wanted := make([]int, 0, h.geo.Width)
	if mode == raid.ModeRMW {
		for _, e := range exts {
			wanted = append(wanted, h.geo.DataDrive(stripe, e.Chunk))
		}
		p, q := h.parityAlive(stripe)
		if p {
			wanted = append(wanted, h.geo.PDrive(stripe))
		}
		if q {
			wanted = append(wanted, h.geo.QDrive(stripe))
		}
		return wanted
	}
	uLo, uHi := raid.UnionRange(exts)
	covered := make([]bool, h.geo.DataChunks())
	for _, e := range exts {
		covered[e.Chunk] = e.Off == uLo && e.Off+e.Len == uHi
	}
	for c, m := range h.dataMembers(stripe) {
		if !covered[c] {
			wanted = append(wanted, m)
		}
	}
	return wanted
}

// hostWrite is the one host-side writer. It reads the wanted members over
// the union of the written ranges — one at a time when the host reduces
// (Reduce.hostReduces) — solving any that are erased through surviving
// parity, computes parity on the host and writes the data and parity back.
// With every data chunk in hand (RCW, the consistency fallback) parity is
// recomputed; with the written chunks and old parity (RMW) it is updated by
// their deltas. The fallback wants every data chunk: the §5.4 full-stripe
// retry, the degraded corner cases and HostStripeWrites. Timeouts in either
// phase route through g.timeout, which owns the retry budget.
func (h *HostController) hostWrite(g *groupWrite, wanted []int) {
	stripe, exts, data := g.stripe, g.exts, g.data
	uLo, uHi := raid.UnionRange(exts)
	uLen := uHi - uLo
	k := h.geo.DataChunks()
	pAlive, qAlive := h.parityAlive(stripe)
	rmw := false // old parity wanted: update it by the written chunks' deltas
	for _, m := range wanted {
		if kind, _ := h.geo.Role(stripe, m); kind != raid.KindData {
			rmw = true
		}
	}

	readers, lost, ok := h.planDecode(stripe, wanted, nil)
	if !ok {
		h.rt.Defer(func() {
			g.end(fmt.Errorf("core: stripe %d host write: %w", stripe, blockdev.ErrDoubleFault))
		})
		return
	}

	// Phases 2 and 3, given the pre-operation content of the data chunks read
	// (empty where the write covers the chunk and nothing was read) and, for
	// RMW, of the parity in service. Those buffers are exclusively ours (fresh
	// drive-read copies or solver output) and dead afterwards, so the overlay
	// mutates them in place.
	finish := func(old []parity.Buffer, newP, newQ parity.Buffer) {
		elided := data.Elided()
		fold := newP.Len()+newQ.Len() > 0 // old parity in hand: apply deltas
		cost := h.parityCost(uLen, qAlive)
		if fold {
			n := 0
			for _, e := range exts {
				n += 2 * int(e.Len) // old and new content
			}
			cost = 0
			if pAlive {
				cost += h.xorCost(n)
			}
			if qAlive {
				cost += h.gfCost(n)
			}
		}
		for _, e := range exts {
			seg := data.Slice(int(e.VOff), int(e.Len))
			b := old[e.Chunk]
			switch {
			case b.Len() == 0:
				old[e.Chunk] = seg // covers the union: nothing was read
				continue
			case fold:
				newP, newQ = h.foldDelta(newP, newQ, b, e.Chunk, pAlive, qAlive)
			}
			if elided {
				b = parity.Sized(int(uLen))
			} else {
				b.CopyAt(int(e.Off-uLo), seg)
			}
			old[e.Chunk] = b
			if fold {
				newP, newQ = h.foldDelta(newP, newQ, b, e.Chunk, pAlive, qAlive)
			}
		}
		h.worker.Exec(h.stripeCost()+cost, func() {
			// Phase 3: write back touched alive chunks + parity.
			g.writes = h.extentWrites(g.writes[:0], stripe, exts, data)
			if fold {
				if pAlive {
					g.writes = append(g.writes, memberWrite{h.geo.PDrive(stripe), uLo, newP})
				}
				if qAlive {
					g.writes = append(g.writes, memberWrite{h.geo.QDrive(stripe), uLo, newQ})
				}
			} else {
				g.writes = h.parityWrites(g.writes, stripe, uLo, old, pAlive, qAlive)
			}
			h.writeMembers("host-writeback", stripe, g.writes, g.okFn, g.timeoutFn)
		})
	}

	// Phase 1: the wanted members, plus — for erased data chunks — every
	// surviving data chunk and the parity the solve needs.
	h.readMembers("host-preread", stripe, uLo, uHi, readers, h.cfg.Reduce.hostReduces(),
		func(got map[int]parity.Buffer) {
			solved, err := h.solveLost(stripe, lost, got)
			if err != nil {
				g.end(fmt.Errorf("core: stripe %d host write: %w", stripe, err))
				return
			}
			old := make([]parity.Buffer, k)
			for c, m := range h.dataMembers(stripe) {
				b, ok := got[m]
				if !ok {
					b = solved[m]
				}
				old[c] = b
			}
			var oldP, oldQ parity.Buffer
			if rmw && pAlive {
				oldP = got[h.geo.PDrive(stripe)]
			}
			if rmw && qAlive {
				oldQ = got[h.geo.QDrive(stripe)]
			}
			finish(old, oldP, oldQ)
		},
		func(member int, _ nvmeof.Command) {
			// A phase-1 read hit unreadable sectors. The fallback may be cleaning
			// up after an aborted partial write whose siblings already committed
			// while parity did not, so the bad member cannot simply be solved
			// against the survivors' stored bytes — fallbackRecoverOld re-derives
			// every chunk's pre-operation content through the write hole, and
			// parity is recomputed from it.
			h.fallbackRecoverOld(stripe, exts, uLo, uHi, map[int]bool{member: true},
				func(old []parity.Buffer, err error) {
					if err != nil {
						h.recordShortfall(err)
						g.end(fmt.Errorf("core: stripe %d host write: %w", stripe, err))
						return
					}
					h.repairChunkRange(stripe, member, uLo, uHi, nil)
					finish(old, parity.Buffer{}, parity.Buffer{})
				})
		},
		g.timeoutFn)
}

// foldDelta folds chunk c's content b into the running RMW parities: P ^= b,
// Q ^= g^c·b. Folding a chunk's old and new content applies its delta.
func (h *HostController) foldDelta(p, q, b parity.Buffer, c int, pAlive, qAlive bool) (parity.Buffer, parity.Buffer) {
	if pAlive {
		p = parity.XORInto(p, b)
	}
	if qAlive {
		q = parity.MulAddInto(q, b, parity.QCoeff(c))
	}
	return p, q
}
