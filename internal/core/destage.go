package core

import (
	"draid/internal/integrity"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/sim"
)

// Destage: staged stripes drain back to the drives as full-stripe writes
// when coalescing completed, as reconstruct-style writes for cold partial
// stripes (periodic idle flush, memory pressure, explicit Flush). Every
// destage runs under the stripe's write lock, so it serializes with user
// write-through, rebuild, resync, and scrub exactly as a user write does,
// and marks the §5.4 write-intent bitmap while its drive writes are in
// flight.

// startDestageTimer begins the periodic idle-destage tick as background work
// (it must never keep Run from returning).
func (st *stage) startDestageTimer() {
	interval := st.h.cfg.DestageInterval
	if interval <= 0 {
		interval = 2 * sim.Millisecond
	}
	var tick func()
	tick = func() {
		if st.h.crashed || st.h.fenced {
			// A fenced host must stop destaging: its staged data now belongs
			// to the replacement that seized the volume (the bdevs would
			// reject the writes anyway).
			return
		}
		mark := st.tickMark
		st.tickMark = st.clock
		for _, stripe := range st.stagedStripes() {
			s := st.stripes[stripe]
			// Destage stripes idle for a full interval; recently written
			// stripes keep coalescing.
			if s.snap == nil && !s.set.Empty() && s.touch <= mark {
				st.destageStripe(stripe, nil)
			}
		}
		st.h.rt.AfterBG(interval, tick)
	}
	st.h.rt.AfterBG(interval, tick)
}

// destageCold schedules destage of the coldest non-destaging stripes — the
// memory-pressure path. Freed bytes wake parked writes.
func (st *stage) destageCold() {
	var coldest int64 = -1
	var coldTouch int64
	for _, stripe := range st.stagedStripes() {
		s := st.stripes[stripe]
		if s.snap != nil || s.set.Empty() {
			continue
		}
		if coldest < 0 || s.touch < coldTouch {
			coldest, coldTouch = stripe, s.touch
		}
	}
	if coldest >= 0 {
		st.destageStripe(coldest, nil)
	}
}

// destageStripe writes one stripe's staged ranges out under the stripe write
// lock. The snapshot is taken inside the lock, so whatever a queued
// write-through superseded is simply no longer there. done (optional)
// observes the outcome; on failure the snapshot's bytes return to the live
// set and a later destage retries — acknowledged data is never dropped.
func (st *stage) destageStripe(stripe int64, done func(error)) {
	h := st.h
	finish := func(err error) {
		if err != nil && st.flushErr == nil {
			st.flushErr = err
		}
		if done != nil {
			done(err)
		}
	}
	h.acquireStripe(stripe, func() {
		if h.fenced {
			h.releaseStripe(stripe)
			h.rt.Defer(func() { finish(h.fenceError("destage")) })
			return
		}
		s := st.stripes[stripe]
		if s == nil || s.set.Empty() || h.crashed {
			h.releaseStripe(stripe)
			if !h.crashed {
				h.rt.Defer(func() { finish(nil) })
			}
			return
		}
		sds := h.geo.StripeDataSize()
		snap := &destageSnap{set: s.set, data: s.data, elided: s.elided, logSeq: st.log.seq}
		s.set, s.data, s.elided = integrity.RangeSet{}, parity.Buffer{}, false
		s.snap = snap

		var staged int64
		for _, sp := range snap.set.Spans() {
			staged += sp.Len
		}
		exts, gaps := st.destageExtents(stripe, snap)
		if staged == sds {
			h.stats.DestageFullStripe++
		} else {
			h.stats.DestageRCW++
		}
		issue := func() { st.destageIssue(stripe, s, snap, exts, sds, finish) }
		if len(gaps) == 0 {
			issue()
			return
		}
		// Interleaved staged spans left interior gaps inside some chunk's
		// extent hull: backfill them with the chunk's current content (the
		// read path overlays anything newer staged meanwhile) so the write
		// paths see one contiguous extent per chunk. A failed backfill aborts
		// the destage exactly like a failed write — the snapshot returns to
		// the live set and a later destage retries.
		vbase := st.stripeBase(stripe)
		pending := len(gaps)
		var fillErr error
		fillDone := func(err error) {
			if err != nil && fillErr == nil {
				fillErr = err
			}
			if pending--; pending > 0 {
				return
			}
			if fillErr != nil {
				st.restoreSnap(stripe, s, snap)
				s.snap = nil
				st.wake()
				h.releaseStripe(stripe)
				finish(fillErr)
				return
			}
			issue()
		}
		for _, g := range gaps {
			g := g
			h.readIO(vbase+g.Off, g.Len, func(b parity.Buffer, err error) {
				if err == nil && !snap.elided && snap.data.Len() > 0 && b.Len() > 0 {
					snap.data.CopyAt(int(g.Off), b)
				}
				b.Release()
				fillDone(err)
			})
			// Backfills are internal traffic, not user I/O.
			h.stats.Reads--
			h.stats.UserBytesRead -= g.Len
		}
	})
}

// destageIssue runs one destage's drive writes and completion bookkeeping.
// Called with the stripe lock held and the snapshot's extents finalized.
func (st *stage) destageIssue(stripe int64, s *stagedStripe, snap *destageSnap, exts []raid.Extent, sds int64, finish func(error)) {
	h := st.h
	h.markDirty(stripe)
	h.destageWrite(stripe, exts, snap.data, func(err error) {
		h.clearDirty(stripe)
		base := st.stripeBase(stripe)
		if err == nil {
			// The staged bytes are on the drives: clear lost regions they
			// rewrote, feed the clean cache, truncate the intent log, and
			// release the snapshot's memory.
			for _, sp := range snap.set.Spans() {
				if !h.lost.Empty() {
					h.lost.Remove(base+sp.Off, sp.Len)
				}
				if h.cache != nil {
					h.cache.insert(base+sp.Off, sp.Len, snap.data, base)
				}
			}
			st.log.truncate(stripe, snap.logSeq)
		} else {
			// Keep acknowledged data: merge the snapshot back under any
			// newer live writes and let a later destage retry.
			st.restoreSnap(stripe, s, snap)
		}
		s.snap = nil
		if err == nil {
			st.bytes -= sds
			if s.set.Empty() && s.data.Len() == 0 {
				delete(st.stripes, stripe)
			}
		}
		st.wake()
		h.releaseStripe(stripe)
		finish(err)
	})
}

// destageExtents builds one destage's drive extents: exactly one extent per
// data chunk, covering the hull of that chunk's staged spans, with VOff
// indexing the stripe-relative snapshot buffer. One extent per chunk is a
// hard requirement of the write paths (they key participants by chunk);
// staged spans from separate small writes can interleave within a chunk, so
// the hull is destaged and its interior gaps returned for backfilling.
func (st *stage) destageExtents(stripe int64, snap *destageSnap) ([]raid.Extent, []integrity.Span) {
	h := st.h
	cs := h.geo.ChunkSize
	spans := snap.set.Spans()
	var exts []raid.Extent
	var gaps []integrity.Span
	for c := 0; c < h.geo.DataChunks(); c++ {
		cLo, cHi := int64(c)*cs, int64(c+1)*cs
		lo, hi := int64(-1), int64(-1)
		covered := integrity.RangeSet{}
		for _, sp := range spans {
			o, e := sp.Off, sp.Off+sp.Len
			if e <= cLo || o >= cHi {
				continue
			}
			if o < cLo {
				o = cLo
			}
			if e > cHi {
				e = cHi
			}
			if lo < 0 || o < lo {
				lo = o
			}
			if e > hi {
				hi = e
			}
			covered.Add(o, e-o)
		}
		if lo < 0 {
			continue
		}
		for _, e := range h.geo.Split(st.stripeBase(stripe)+lo, hi-lo) {
			e.VOff += lo
			exts = append(exts, e)
		}
		gap := integrity.RangeSet{}
		gap.Add(lo, hi-lo)
		for _, sp := range covered.Spans() {
			gap.Remove(sp.Off, sp.Len)
		}
		gaps = append(gaps, gap.Spans()...)
	}
	return exts, gaps
}

// restoreSnap merges a failed destage's snapshot back into the live set:
// snapshot ranges not overwritten by newer live writes are copied under
// them. Runs while the stripe lock is still held.
//
// The snapshot's buffer itself never becomes live again. The failed destage
// lent slices of it to its write capsules, and one of those may still be
// parked in a stalled drive's queue, to read its bytes when it finally lands;
// later user writes are copied into the live buffer, so the live buffer must
// be storage no capsule borrows.
func (st *stage) restoreSnap(stripe int64, s *stagedStripe, snap *destageSnap) {
	sds := st.h.geo.StripeDataSize()
	if s.set.Empty() && s.data.Len() == 0 {
		// No newer writes: a copy of the snapshot becomes the live set.
		s.set, s.data, s.elided = snap.set, snap.data.Clone(), snap.elided
		return
	}
	// Both the snapshot and the live set hold a full-stripe buffer; merging
	// frees the snapshot's.
	live := s.set.Spans()
	for _, sp := range snap.set.Spans() {
		gap := integrity.RangeSet{}
		gap.Add(sp.Off, sp.Len)
		for _, l := range live {
			gap.Remove(l.Off, l.Len)
		}
		for _, g := range gap.Spans() {
			if !s.elided && !snap.elided && s.data.Len() > 0 && snap.data.Len() > 0 {
				s.data.CopyAt(int(g.Off), snap.data.Slice(int(g.Off), int(g.Len)))
			}
			s.set.Add(g.Off, g.Len)
		}
	}
	st.bytes -= sds // the snapshot's buffer is released by the merge
}

// destageWrite executes one destage's drive writes. A fully staged stripe
// takes the normal full-stripe path; a healthy partial stripe is forced
// through reconstruct-write (read the unstaged chunks, rewrite data +
// parity — the classic cold-destage mode, leaving no dependence on old
// parity); degraded or corner-case stripes fall back to the general
// stripeWrite dispatch, which already encodes every degraded rule.
func (h *HostController) destageWrite(stripe int64, exts []raid.Extent, data parity.Buffer, done func(error)) {
	g := h.groupWrite(0, stripe, exts, data, false, done)
	if h.geo.DecideWriteMode(exts) == raid.ModeFull || h.failedIn(stripe) > 0 || h.cfg.Reduce.Writes != PeerWrites {
		h.stripeWrite(g)
		return
	}
	h.stats.RCWWrites++
	h.rcwWrite(g, nil)
}

// flush destages every staged stripe and reports when all the kicked
// destages complete (including any in flight when flush was called). The
// error is the first destage failure observed since the last flush; failed
// stripes stay staged for retry.
func (st *stage) flush(cb func(error)) {
	stripes := st.stagedStripes()
	pending := len(stripes)
	if pending == 0 {
		err := st.flushErr
		st.flushErr = nil
		st.h.rt.Defer(func() { cb(err) })
		return
	}
	part := func(error) {
		pending--
		if pending == 0 {
			err := st.flushErr
			st.flushErr = nil
			cb(err)
		}
	}
	for _, stripe := range stripes {
		st.destageStripe(stripe, part)
	}
}

// FlushStage destages every staged write and invokes cb when the stage has
// drained (first destage error reported; failed stripes stay staged). With
// write-back staging disabled it completes immediately.
func (h *HostController) FlushStage(cb func(error)) {
	if h.crashed {
		return
	}
	if h.stage == nil {
		h.rt.Defer(func() { cb(nil) })
		return
	}
	h.stage.flush(cb)
}

// StagedBytes returns the stage's current allocation (0 without WriteBack).
func (h *HostController) StagedBytes() int64 {
	if h.stage == nil {
		return 0
	}
	return h.stage.bytes
}

// StagedStripes returns the stripes currently holding staged data.
func (h *HostController) StagedStripes() []int64 {
	if h.stage == nil {
		return nil
	}
	return h.stage.stagedStripes()
}
