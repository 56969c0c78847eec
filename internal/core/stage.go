package core

import (
	"sort"

	"draid/internal/integrity"
	"draid/internal/parity"
	"draid/internal/raid"
)

// Host-side write-back staging (the ZIL / MD-PPL lineage): sub-stripe writes
// are copied into per-stripe staging buffers backed by an intent log,
// acknowledged immediately, coalesced, and destaged as full-stripe writes —
// closing the RMW write hole by construction for staged writes and bending
// the small-write amplification curve from ~2× (data + parity) toward
// (k+parity)/k. Full-stripe-covering writes bypass the stage (nothing to
// coalesce) and supersede any staged data for their stripe.
//
// Crash model: like the §5.4 write-intent bitmap, the in-memory intent log +
// staging buffers stand for the persistent structures a production host
// would keep in NVRAM or a log device. Crash() preserves them, and a
// replacement controller replays them via Adopt — acknowledged staged writes
// survive host failover.

// intentRecord is one acknowledged-but-not-destaged write. Payload bytes
// live in the staging buffer, which doubles as the log's data area (as in
// logs that serve reads from the log buffer).
type intentRecord struct {
	seq int64
	off int64 // stripe-relative user byte offset
	len int64
}

// intentLog is the crash-recoverable record of staged writes, per stripe.
// Records are appended at stage time and truncated only after the covering
// destage completes, so a crash mid-destage replays the stripe.
type intentLog struct {
	seq  int64
	recs map[int64][]intentRecord // stripe → open records, in seq order
}

func (l *intentLog) append(stripe, off, n int64) int64 {
	l.seq++
	if l.recs == nil {
		l.recs = make(map[int64][]intentRecord)
	}
	l.recs[stripe] = append(l.recs[stripe], intentRecord{seq: l.seq, off: off, len: n})
	return l.seq
}

// truncate drops a stripe's records with seq <= upTo.
func (l *intentLog) truncate(stripe, upTo int64) {
	recs := l.recs[stripe]
	keep := recs[:0:0]
	for _, r := range recs {
		if r.seq > upTo {
			keep = append(keep, r)
		}
	}
	if len(keep) == 0 {
		delete(l.recs, stripe)
		return
	}
	l.recs[stripe] = keep
}

// stagedStripe is one stripe's live staged state: which stripe-relative
// ranges hold newer-than-drive data, and the buffer carrying them.
type stagedStripe struct {
	set    integrity.RangeSet
	data   parity.Buffer // full-stripe buffer, allocated on first write
	elided bool
	touch  int64 // stage clock of the last write (cold-first destage order)
	// snap is the in-flight destage snapshot: non-nil exactly while a
	// destage of this stripe holds the stripe write lock. New writes land in
	// the live set meanwhile; reads overlay snap first, then live.
	snap *destageSnap
}

// destageSnap owns the ranges and buffer a running destage is writing out.
type destageSnap struct {
	set    integrity.RangeSet
	data   parity.Buffer
	elided bool
	logSeq int64 // intent records up to here truncate on completion
}

// stage is the write-back staging layer of one host controller. All state is
// loop-confined like the rest of the controller.
type stage struct {
	h        *HostController
	limit    int64 // bound on allocated staging bytes (live + snapshots)
	bytes    int64
	stripes  map[int64]*stagedStripe
	log      intentLog
	clock    int64
	tickMark int64    // clock at the last destage tick (idle detection)
	waiters  []func() // writes blocked on staging memory pressure
	flushErr error    // first destage failure since the last Flush
}

func newStage(h *HostController, limit int64) *stage {
	return &stage{h: h, limit: limit, stripes: make(map[int64]*stagedStripe)}
}

// stripeBase returns the virtual byte offset of a stripe's user data.
func (st *stage) stripeBase(stripe int64) int64 {
	return stripe * st.h.geo.StripeDataSize()
}

// stripeRel converts an extent to its stripe-relative user byte offset.
func stripeRel(g raid.Geometry, e raid.Extent) int64 {
	return int64(e.Chunk)*g.ChunkSize + e.Off
}

// write absorbs one user write: full-stripe-covering groups write through
// (and supersede staged data); everything else is copied into the stage,
// logged, and acknowledged without drive I/O.
func (st *stage) write(off int64, data parity.Buffer, cb func(error)) {
	exts := st.h.geo.Split(off, int64(data.Len()))
	pending := int(exts[len(exts)-1].Stripe-exts[0].Stripe) + 1 // a contiguous range's stripes are too
	var firstErr error
	part := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		pending--
		if pending == 0 {
			cb(firstErr)
		}
	}
	var private parity.Buffer // write-through groups share one copy of the caller's bytes (writeIO)
	for rest := exts; len(rest) > 0; {
		group := raid.StripeRun(rest)
		rest = rest[len(group):]
		stripe := group[0].Stripe
		if st.h.geo.DecideWriteMode(group) == raid.ModeFull || st.limit < st.h.geo.StripeDataSize() {
			// Nothing to coalesce (or the stage cannot hold even one
			// stripe): write through the normal path.
			if private.Len() == 0 {
				private = data.Clone()
			}
			st.h.writeStripeGroup(off, stripe, group, private, part)
			continue
		}
		st.stageGroup(stripe, group, data, part)
	}
}

// stageGroup copies one stripe's extents into the staging buffer, appends
// intent records, and acknowledges. Under memory pressure it kicks cold
// destages and retries once bytes free up.
func (st *stage) stageGroup(stripe int64, group []raid.Extent, data parity.Buffer, done func(error)) {
	s := st.stripes[stripe]
	if s == nil && st.bytes+st.h.geo.StripeDataSize() > st.limit {
		// Admitting this stripe needs a new full-stripe buffer. Destage the
		// coldest staged stripes and queue the write behind the freed bytes.
		st.destageCold()
		st.waiters = append(st.waiters, func() {
			st.stageGroup(stripe, group, data, done)
		})
		return
	}
	sds := st.h.geo.StripeDataSize()
	if s == nil {
		s = &stagedStripe{}
		st.stripes[stripe] = s
		st.bytes += sds
	}
	if s.data.Len() == 0 {
		if data.Elided() {
			s.data, s.elided = parity.Sized(int(sds)), true
		} else {
			s.data = parity.Alloc(int(sds))
		}
	}
	st.clock++
	s.touch = st.clock
	for _, e := range group {
		rel := stripeRel(st.h.geo, e)
		if !s.elided && !data.Elided() {
			s.data.CopyAt(int(rel), data.Slice(int(e.VOff), int(e.Len)))
		}
		s.set.Add(rel, e.Len)
		st.log.append(stripe, rel, e.Len)
	}
	st.h.stats.StagedWrites++
	// Acknowledge now: the write is durable in the (modelled-persistent)
	// intent log. A fully covered stripe destages immediately — optimal
	// amplification and the fastest path out of the stage.
	st.h.rt.Defer(func() { done(nil) })
	if st.covered(s) == sds {
		st.destageStripe(stripe, nil)
	}
}

// covered returns how many bytes of the stripe the live set stages.
func (st *stage) covered(s *stagedStripe) int64 {
	var n int64
	for _, sp := range s.set.Spans() {
		n += sp.Len
	}
	return n
}

// drop removes staged live ranges superseded by a write-through group. Runs
// inside the stripe's write lock, so it cannot race a destage snapshot (a
// snapshot only exists while its destage holds the same lock).
func (st *stage) drop(stripe int64, group []raid.Extent) {
	s := st.stripes[stripe]
	if s == nil {
		return
	}
	for _, e := range group {
		s.set.Remove(stripeRel(st.h.geo, e), e.Len)
	}
	if s.set.Empty() {
		st.log.truncate(stripe, st.log.seq)
		st.freeLive(stripe, s)
	}
}

// freeLive releases a stripe's live buffer (the snapshot, if any, stays
// accounted until its destage completes).
func (st *stage) freeLive(stripe int64, s *stagedStripe) {
	if s.data.Len() > 0 || !s.set.Empty() {
		s.set = integrity.RangeSet{}
		s.data = parity.Buffer{}
		s.elided = false
		st.bytes -= st.h.geo.StripeDataSize()
	}
	if s.snap == nil {
		delete(st.stripes, stripe)
	}
	st.wake()
}

// wake retries writes parked on memory pressure.
func (st *stage) wake() {
	if len(st.waiters) == 0 {
		return
	}
	w := st.waiters
	st.waiters = nil
	for _, fn := range w {
		st.h.rt.Defer(fn)
	}
}

// stagedStripes returns the staged stripe numbers in ascending order
// (deterministic iteration for the simulation).
func (st *stage) stagedStripes() []int64 {
	out := make([]int64, 0, len(st.stripes))
	for s := range st.stripes {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------------------------------------------------------------------------
// Read-side: read-your-writes overlay and staged coverage queries. Every read
// path (normal, hedged, degraded, host-fallback) assembles drive-state bytes
// and then overlays the stage, so staged-but-not-destaged stripes are seen
// correctly everywhere.

// overlaySpan copies staged bytes from one span set into buf (which covers
// virtual range [off, off+n)).
func overlaySpan(set *integrity.RangeSet, data parity.Buffer, elided bool, base, off, n int64, buf parity.Buffer) {
	for _, sp := range set.Spans() {
		lo, hi := base+sp.Off, base+sp.End()
		if lo < off {
			lo = off
		}
		if hi > off+n {
			hi = off + n
		}
		if lo >= hi || elided || data.Elided() {
			continue
		}
		buf.CopyAt(int(lo-off), data.Slice(int(lo-base), int(hi-lo)))
	}
}

// ovSpan is one staged range captured at read issue time: its virtual offset
// plus an aliased (zero-copy) view of the staged bytes.
type ovSpan struct {
	off int64
	buf parity.Buffer
}

// captureOverlay snapshots the staged ranges overlapping [off, off+n) as of
// read issue. A read must reflect every write acknowledged before it was
// issued, but the completion-time overlay alone cannot guarantee that: a
// destage can complete (and drop its snapshot) while the read's drive I/O is
// still in flight, and a drive may have served the read's fetch before the
// destage's write landed — leaving the pre-image in the assembled result with
// nothing left to overlay it. The capture pins the issue-time staged bytes so
// completion lays them over whatever the drives returned; the live overlay
// still runs afterwards, so anything staged meanwhile wins on top. Spans are
// appended snapshot-before-live, matching overlayInto's newer-wins order.
func (st *stage) captureOverlay(off, n int64) []ovSpan {
	var out []ovSpan
	collect := func(set *integrity.RangeSet, data parity.Buffer, elided bool, base int64) {
		for _, sp := range set.Spans() {
			lo, hi := base+sp.Off, base+sp.End()
			if lo < off {
				lo = off
			}
			if hi > off+n {
				hi = off + n
			}
			if lo >= hi || elided || data.Elided() {
				continue
			}
			out = append(out, ovSpan{off: lo, buf: data.Slice(int(lo-base), int(hi-lo))})
		}
	}
	lo := off / st.h.geo.StripeDataSize()
	hi := (off + n - 1) / st.h.geo.StripeDataSize()
	for stripe := lo; stripe <= hi; stripe++ {
		s := st.stripes[stripe]
		if s == nil {
			continue
		}
		base := st.stripeBase(stripe)
		if s.snap != nil {
			collect(&s.snap.set, s.snap.data, s.snap.elided, base)
		}
		collect(&s.set, s.data, s.elided, base)
	}
	return out
}

// overlayInto copies every staged byte overlapping [off, off+n) over buf:
// destage snapshots first, live ranges second (newer wins).
func (st *stage) overlayInto(off, n int64, buf parity.Buffer) {
	if buf.Elided() {
		return
	}
	lo := off / st.h.geo.StripeDataSize()
	hi := (off + n - 1) / st.h.geo.StripeDataSize()
	for stripe := lo; stripe <= hi; stripe++ {
		s := st.stripes[stripe]
		if s == nil {
			continue
		}
		base := st.stripeBase(stripe)
		if s.snap != nil {
			overlaySpan(&s.snap.set, s.snap.data, s.snap.elided, base, off, n, buf)
		}
		overlaySpan(&s.set, s.data, s.elided, base, off, n, buf)
	}
}

// uncovered returns [off, off+n) minus the staged ranges (snapshots and
// live), as virtual-offset spans.
func (st *stage) uncovered(off, n int64) []integrity.Span {
	var covered integrity.RangeSet
	sds := st.h.geo.StripeDataSize()
	for stripe := off / sds; stripe <= (off+n-1)/sds; stripe++ {
		s := st.stripes[stripe]
		if s == nil {
			continue
		}
		base := st.stripeBase(stripe)
		if s.snap != nil {
			for _, sp := range s.snap.set.Spans() {
				covered.Add(base+sp.Off, sp.Len)
			}
		}
		for _, sp := range s.set.Spans() {
			covered.Add(base+sp.Off, sp.Len)
		}
	}
	gap := integrity.RangeSet{}
	gap.Add(off, n)
	for _, sp := range covered.Spans() {
		gap.Remove(sp.Off, sp.Len)
	}
	return gap.Spans()
}

// stageElided reports whether any staged range overlapping [off, off+n)
// carries size-only data.
func (st *stage) stageElided(off, n int64) bool {
	sds := st.h.geo.StripeDataSize()
	for stripe := off / sds; stripe <= (off+n-1)/sds; stripe++ {
		s := st.stripes[stripe]
		if s == nil {
			continue
		}
		base := st.stripeBase(stripe)
		if s.elided {
			if _, hit := s.set.Intersect(off-base, n); hit {
				return true
			}
		}
		if s.snap != nil && s.snap.elided {
			if _, hit := s.snap.set.Intersect(off-base, n); hit {
				return true
			}
		}
	}
	return false
}

// adopt replays a crashed predecessor's intent log into this stage: live
// ranges and any mid-destage snapshot merge (snapshot first, live over it)
// into fresh staged stripes. Returns the adopted stripe numbers.
func (st *stage) adopt(prev *stage) []int64 {
	var out []int64
	for _, stripe := range prev.stagedStripes() {
		ps := prev.stripes[stripe]
		sds := st.h.geo.StripeDataSize()
		s := &stagedStripe{}
		merge := func(set *integrity.RangeSet, data parity.Buffer, elided bool) {
			for _, sp := range set.Spans() {
				if elided || data.Elided() {
					s.elided = true
				} else {
					if s.data.Len() == 0 {
						s.data = parity.Alloc(int(sds))
					}
					s.data.CopyAt(int(sp.Off), data.Slice(int(sp.Off), int(sp.Len)))
				}
				s.set.Add(sp.Off, sp.Len)
				st.log.append(stripe, sp.Off, sp.Len)
			}
		}
		if ps.snap != nil {
			merge(&ps.snap.set, ps.snap.data, ps.snap.elided)
		}
		merge(&ps.set, ps.data, ps.elided)
		if s.set.Empty() {
			continue
		}
		if s.elided && s.data.Len() == 0 {
			s.data = parity.Sized(int(sds))
		}
		st.clock++
		s.touch = st.clock
		st.stripes[stripe] = s
		st.bytes += sds
		out = append(out, stripe)
	}
	return out
}

// tryMemRead serves [off, off+n) entirely from host memory when the stage
// plus the clean-read cache cover it: the cache fills the unstaged gaps, the
// stage overlays its (newer) bytes on top. Reports whether it served.
func (h *HostController) tryMemRead(off, n int64, cb func(parity.Buffer, error)) bool {
	if h.stage == nil && h.cache == nil {
		return false
	}
	var gaps []integrity.Span
	if h.stage != nil {
		gaps = h.stage.uncovered(off, n)
	} else {
		gaps = []integrity.Span{{Off: off, Len: n}}
	}
	if len(gaps) > 0 && h.cache == nil {
		return false
	}
	for _, g := range gaps {
		if !h.cache.covers(g.Off, g.Len) {
			return false
		}
	}
	buf := h.results.Get(int(n))
	elided := false
	for _, g := range gaps {
		if h.cache.readInto(g.Off, g.Len, buf, g.Off-off) {
			elided = true
		}
	}
	if h.stage != nil {
		h.stage.overlayInto(off, n, buf)
		if h.stage.stageElided(off, n) {
			elided = true
		}
	}
	out := buf
	if elided {
		buf.Release()
		out = parity.Sized(int(n))
	}
	h.stats.CacheHits++
	h.rt.Defer(func() { cb(out, nil) })
	return true
}

// lostUncovered returns the first lost span in [off, off+n) not covered by
// staged data. Staged writes over lost bytes are readable (the overlay
// supplies them) and bring the bytes back once destaged.
func (h *HostController) lostUncovered(off, n int64) (integrity.Span, bool) {
	if h.lost.Empty() {
		return integrity.Span{}, false
	}
	if h.stage == nil {
		return h.lost.Intersect(off, n)
	}
	for _, g := range h.stage.uncovered(off, n) {
		if s, hit := h.lost.Intersect(g.Off, g.Len); hit {
			return s, true
		}
	}
	return integrity.Span{}, false
}

// ---------------------------------------------------------------------------
// Clean read cache: a small, per-volume-accounted block cache fed by read
// completions and destages. Together with the stage it lets repeated reads
// (and reads of recently staged/destaged data) complete with no drive I/O.

// cacheBlockSize is the cache granularity: 4 KiB, the integrity-block size.
const cacheBlockSize = 4 << 10

type cacheBlock struct {
	idx        int64
	data       []byte // nil for size-only payloads
	prev, next *cacheBlock
}

// readCache is an LRU over aligned cacheBlockSize blocks of the virtual
// device. Occupancy is mirrored into Stats.CacheBytes.
type readCache struct {
	h      *HostController
	limit  int64
	bytes  int64
	blocks map[int64]*cacheBlock
	head   *cacheBlock // most recently used
	tail   *cacheBlock
}

func newReadCache(h *HostController, limit int64) *readCache {
	return &readCache{h: h, limit: limit, blocks: make(map[int64]*cacheBlock)}
}

func (c *readCache) unlink(b *cacheBlock) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		c.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		c.tail = b.prev
	}
	b.prev, b.next = nil, nil
}

func (c *readCache) pushFront(b *cacheBlock) {
	b.next = c.head
	if c.head != nil {
		c.head.prev = b
	}
	c.head = b
	if c.tail == nil {
		c.tail = b
	}
}

func (c *readCache) touch(b *cacheBlock) {
	if c.head == b {
		return
	}
	c.unlink(b)
	c.pushFront(b)
}

func (c *readCache) remove(b *cacheBlock) {
	c.unlink(b)
	delete(c.blocks, b.idx)
	c.bytes -= cacheBlockSize
	c.h.stats.CacheBytes = c.bytes
}

// insert caches every aligned block fully inside [off, off+n), copying bytes
// out of buf (whose first byte is virtual offset base).
func (c *readCache) insert(off, n int64, buf parity.Buffer, base int64) {
	first := (off + cacheBlockSize - 1) / cacheBlockSize
	last := (off + n) / cacheBlockSize // exclusive
	for idx := first; idx < last; idx++ {
		b := c.blocks[idx]
		if b == nil {
			b = &cacheBlock{idx: idx}
			c.blocks[idx] = b
			c.pushFront(b)
			c.bytes += cacheBlockSize
		} else {
			c.touch(b)
		}
		if buf.Elided() {
			b.data = nil
		} else {
			if b.data == nil {
				b.data = make([]byte, cacheBlockSize)
			}
			copy(b.data, buf.Data()[idx*cacheBlockSize-base:])
		}
	}
	for c.bytes > c.limit && c.tail != nil {
		c.remove(c.tail)
	}
	c.h.stats.CacheBytes = c.bytes
}

// invalidate drops every block overlapping [off, off+n).
func (c *readCache) invalidate(off, n int64) {
	for idx := off / cacheBlockSize; idx*cacheBlockSize < off+n; idx++ {
		if b := c.blocks[idx]; b != nil {
			c.remove(b)
		}
	}
}

// covers reports whether the cache holds every block overlapping
// [off, off+n), touching them for LRU on success.
func (c *readCache) covers(off, n int64) bool {
	for idx := off / cacheBlockSize; idx*cacheBlockSize < off+n; idx++ {
		if c.blocks[idx] == nil {
			return false
		}
	}
	for idx := off / cacheBlockSize; idx*cacheBlockSize < off+n; idx++ {
		c.touch(c.blocks[idx])
	}
	return true
}

// readInto copies [off, off+n) from the cache into buf at bufOff, reporting
// whether any source block was size-only.
func (c *readCache) readInto(off, n int64, buf parity.Buffer, bufOff int64) (elided bool) {
	for idx := off / cacheBlockSize; idx*cacheBlockSize < off+n; idx++ {
		b := c.blocks[idx]
		lo, hi := idx*cacheBlockSize, (idx+1)*cacheBlockSize
		if lo < off {
			lo = off
		}
		if hi > off+n {
			hi = off + n
		}
		if b.data == nil {
			elided = true
			continue
		}
		if !buf.Elided() {
			buf.CopyAt(int(bufOff+lo-off), parity.FromBytes(b.data[lo-idx*cacheBlockSize:hi-idx*cacheBlockSize]))
		}
	}
	return elided
}
