package core

import (
	"fmt"
	"sort"

	"draid/internal/backend"
	"draid/internal/hist"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/recon"
	"draid/internal/sim"
)

// This file implements hedged reads: the grey-failure counterpart of the
// §6.1 degraded read. A drive that is slow — not dead — stalls exactly one
// chunk of an otherwise-complete stripe read. Instead of waiting out the
// straggler (or the §5.4 deadline), the host reads the stripe's P chunk,
// reuses the data completions it already holds, and XOR-solves the
// straggler's range: any k of the n members answer the read. The loser is
// cancelled, and the health detector is told the member was slow so
// persistent laggards are eventually evicted rather than hedged forever.
//
// With HedgeOff (the default) none of this code runs and the read path is
// byte-identical to the pre-hedging implementation.

// HedgePolicy selects when a read hedges its stragglers.
type HedgePolicy int

const (
	// HedgeOff never hedges (default).
	HedgeOff HedgePolicy = iota
	// HedgeFixedDelay hedges a straggler outstanding longer than
	// HedgeConfig.Delay.
	HedgeFixedDelay
	// HedgeAdaptiveP95 hedges a straggler outstanding longer than
	// Multiplier × the median of per-member p95 completion latencies —
	// the threshold tracks the fleet, not the laggard.
	HedgeAdaptiveP95
	// HedgeEagerParity issues the parity read up front with the data
	// reads and solves with whichever k of the n complete first.
	HedgeEagerParity
)

// String returns the policy's canonical spelling.
func (p HedgePolicy) String() string {
	switch p {
	case HedgeOff:
		return "off"
	case HedgeFixedDelay:
		return "fixed-delay"
	case HedgeAdaptiveP95:
		return "adaptive-p95"
	case HedgeEagerParity:
		return "eager-parity"
	}
	return fmt.Sprintf("HedgePolicy(%d)", int(p))
}

// HedgeConfig parameterizes straggler hedging on the read path.
type HedgeConfig struct {
	Policy HedgePolicy
	// Delay is the HedgeFixedDelay trigger (default 500µs).
	Delay sim.Duration
	// Multiplier scales the adaptive threshold (default 3).
	Multiplier float64
	// MinSamples is the per-member warm-up before adaptive hedging trusts
	// its quantiles (default 32).
	MinSamples int
}

func (c HedgeConfig) withDefaults() HedgeConfig {
	if c.Delay <= 0 {
		c.Delay = 500 * sim.Microsecond
	}
	if c.Multiplier <= 0 {
		c.Multiplier = 3
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 32
	}
	return c
}

// SlowSink is the optional grey-failure extension of HealthSink: ObserveSlow
// reports that a member was the straggler a hedged read had to solve around.
// Implementations (the repair detector) feed it into degraded→suspect→failed
// transitions so persistently slow members are evicted.
type SlowSink interface {
	ObserveSlow(member int)
}

// hedger holds the host's per-member latency model: an EWMA for cheap
// trend reads plus a full histogram for the adaptive-p95 threshold. It only
// exists when hedging is enabled, so the off path allocates nothing.
type hedger struct {
	cfg  HedgeConfig
	lat  []hist.Histogram
	ewma []recon.EWMA
}

func newHedger(cfg HedgeConfig, width int) *hedger {
	return &hedger{
		cfg:  cfg.withDefaults(),
		lat:  make([]hist.Histogram, width),
		ewma: make([]recon.EWMA, width),
	}
}

// record notes one completed primary read's latency for member.
func (g *hedger) record(member int, d sim.Duration) {
	if member < 0 || member >= len(g.lat) {
		return
	}
	g.lat[member].Record(int64(d))
	g.ewma[member].Update(float64(d))
}

// p95 returns member's observed p95 completion latency (0 with no samples).
func (g *hedger) p95(member int) sim.Duration {
	return sim.Duration(g.lat[member].Quantile(0.95))
}

// triggerDelay returns how long a straggler may stay outstanding before the
// op hedges, or a negative duration when this op must not hedge (adaptive
// policy still warming up).
func (g *hedger) triggerDelay() sim.Duration {
	switch g.cfg.Policy {
	case HedgeFixedDelay:
		return g.cfg.Delay
	case HedgeEagerParity:
		return 0
	case HedgeAdaptiveP95:
		// Median over members of per-member p95: a single slow member
		// inflates its own quantiles enormously, but it cannot move the
		// median of the fleet, so the threshold stays anchored to healthy
		// behavior.
		var p95s []int64
		for m := range g.lat {
			if g.lat[m].Count() >= uint64(g.cfg.MinSamples) {
				p95s = append(p95s, g.lat[m].Quantile(0.95))
			}
		}
		if len(p95s) < (len(g.lat)+1)/2 {
			return -1
		}
		sort.Slice(p95s, func(i, j int) bool { return p95s[i] < p95s[j] })
		return sim.Duration(float64(p95s[len(p95s)/2]) * g.cfg.Multiplier)
	}
	return -1
}

// MemberLatencyP95 exposes the hedger's per-member p95 (0 when hedging is
// off or the member has no samples) — for tests and experiment notes.
func (h *HostController) MemberLatencyP95(member int) sim.Duration {
	if h.hedge == nil || member < 0 || member >= len(h.hedge.lat) {
		return 0
	}
	return h.hedge.p95(member)
}

// MemberLatencyEWMA exposes the per-member latency EWMA in nanoseconds.
func (h *HostController) MemberLatencyEWMA(member int) float64 {
	if h.hedge == nil || member < 0 || member >= len(h.hedge.ewma) {
		return 0
	}
	return h.hedge.ewma[member].Value()
}

// observeSlow forwards straggler evidence to the health sink, if it cares.
// Like all health evidence, slowness is attributed in drive space.
func (h *HostController) observeSlow(drive int) {
	if s, ok := h.health.(SlowSink); ok && drive >= 0 && drive < len(h.memberNode) {
		s.ObserveSlow(drive)
	}
}

// extentWatch is the hedging stage's view of one extent's plain read
// (extentRead): the attempt in flight, so the stage can cancel the loser, and
// who else has taken the extent over. The unhedged read path passes a nil
// watch; every method is a no-op on nil.
type extentWatch struct {
	op    opRef       // plain-read attempt in flight
	read  *extentRead // its record, which a cancelled attempt leaves to us
	drive int         // the drive it reads, for the latency sample
	sent  sim.Time
	// settled: the extent is served — by its read, by recovery or by the
	// stage — so a retry still backing off must not reissue it.
	settled bool
	// recovering: media recovery or the degraded path owns the extent; they
	// read parity themselves and write the same assembler, so the stage must
	// stand down.
	recovering bool
}

func (w *extentWatch) issued(h *HostController, x *extentRead, op *stripeOp) {
	if w != nil {
		e := x.e
		w.op, w.read, w.sent = op.ref(), x, h.rt.Now()
		w.drive = h.layout.Drive(e.Stripe, h.geo.DataDrive(e.Stripe, e.Chunk))
	}
}

func (w *extentWatch) completed(h *HostController) {
	if w != nil {
		h.hedge.record(w.drive, sim.Duration(h.rt.Now()-w.sent))
		w.op = opRef{}
	}
}

func (w *extentWatch) handOff() {
	if w != nil {
		w.op, w.recovering = opRef{}, true
	}
}

// cancelLoser retires the plain read the hedge beat, if it is still in
// flight, and returns its record. The handle may name an attempt that has
// already failed and whose op record now serves another op: that op is left
// alone, and the read's own retry finds the extent settled.
func (w *extentWatch) cancelLoser(h *HostController) {
	if h.cancel(w.op, "hedged") {
		w.read.end()
	}
}

// hedgeRead coordinates the extents of one all-healthy stripe group so that
// a single straggler can be solved through parity from the k completions
// already in hand.
type hedgeRead struct {
	h      *HostController
	stripe int64
	exts   []raid.Extent
	asm    *assembler
	fail   *error
	done   func()

	w           []extentWatch // one per extent
	outstanding int

	timer     backend.Timer
	triggered bool
	finished  bool
	hedgeDead bool // a hedge attempt failed; primary path owns the op now
	resolving bool

	// Eager-parity prefetch state.
	parityOp    opRef
	parityBuf   parity.Buffer
	parityReady bool
	parityLo    int64 // intra-chunk offset the prefetch covers
}

// hedgedReadStripe issues the group's plain reads, each watched, and arms the
// hedge. Calls done exactly once when every extent has settled (or failed,
// with *fail set).
func (h *HostController) hedgedReadStripe(stripe int64, exts []raid.Extent, asm *assembler, fail *error, done func()) {
	hr := &hedgeRead{
		// The group's extents live in the user read's record, which is
		// reused once the read answers; hedge steps may still look after that.
		h: h, stripe: stripe, exts: append([]raid.Extent(nil), exts...), asm: asm, fail: fail, done: done,
		w:           make([]extentWatch, len(exts)),
		outstanding: len(exts),
	}
	for i, e := range hr.exts {
		h.normalReadExtent(e, asm, fail, func() { hr.settle(i) }, &hr.w[i])
	}
	if h.hedge.cfg.Policy == HedgeEagerParity {
		hr.triggered = true
		hr.prefetchParity()
		return
	}
	if d := h.hedge.triggerDelay(); d >= 0 {
		hr.timer = h.rt.After(d, hr.trigger)
	}
}

// settle marks extent i complete; the last settle finishes the group.
func (hr *hedgeRead) settle(i int) {
	if hr.w[i].settled || hr.finished {
		return
	}
	hr.w[i].settled = true
	hr.outstanding--
	if hr.outstanding == 0 {
		hr.finish()
		return
	}
	hr.maybeResolve()
}

// finish retires the group: stop the hedge trigger, cancel any in-flight
// hedge machinery, and report to the caller exactly once.
func (hr *hedgeRead) finish() {
	if hr.finished {
		return
	}
	hr.finished = true
	if hr.timer != nil {
		hr.timer.Stop()
	}
	hr.h.cancel(hr.parityOp, "hedge-unused")
	hr.done()
}

func (hr *hedgeRead) trigger() {
	hr.triggered = true
	hr.maybeResolve()
}

// maybeResolve hedges when the trigger has fired and exactly one extent is
// still outstanding — the straggler condition. (Several stragglers are left
// to the §5.4 deadline, which handles genuine multi-member trouble.)
func (hr *hedgeRead) maybeResolve() {
	if hr.finished || !hr.triggered || hr.hedgeDead || hr.resolving {
		return
	}
	if hr.outstanding != 1 {
		return
	}
	i := -1
	for j := range hr.w {
		if !hr.w[j].settled {
			i = j
			break
		}
	}
	if i < 0 || hr.w[i].recovering {
		return
	}
	if hr.parityOp.live() && !hr.parityReady {
		return // parity prefetch still in flight; its completion re-checks
	}
	hr.resolving = true
	hr.resolve(i)
}

// prefetchParity issues the eager-parity read covering the union of the
// group's intra-chunk ranges, so any later single straggler can be solved
// without another round trip to the P member.
func (hr *hedgeRead) prefetchParity() {
	h := hr.h
	lo, hi := raid.UnionRange(hr.exts)
	pDrive := h.geo.PDrive(hr.stripe)
	if h.memberFailed(hr.stripe, pDrive) {
		return
	}
	hr.parityLo = lo
	hr.parityOp = h.readMembers("hedge-parity", hr.stripe, lo, hi, []int{pDrive}, false,
		func(got map[int]parity.Buffer) {
			hr.parityBuf, hr.parityReady = got[pDrive], true
			hr.maybeResolve()
		},
		nil, // a URE on P fails the prefetch like a timeout does
		func([]NodeID) { hr.hedgeDead = true }).ref()
}

// held returns member m's bytes over the chunk-relative range [lo,hi) when
// the group already has them: in the assembler, from a settled extent that
// covers the range, or in the eager parity prefetch.
func (hr *hedgeRead) held(m int, lo, hi int64) (parity.Buffer, bool) {
	role, c := hr.h.geo.Role(hr.stripe, m)
	if role == raid.KindP && hr.parityReady && hr.parityLo <= lo {
		return hr.parityBuf.Slice(int(lo-hr.parityLo), int(hi-lo)), true
	}
	for j, e := range hr.exts {
		if role == raid.KindData && e.Chunk == c && hr.w[j].settled && e.Off <= lo && e.Off+e.Len >= hi {
			return hr.asm.result().Slice(int(e.VOff+lo-e.Off), int(hi-lo)), true
		}
	}
	return parity.Buffer{}, false
}

// resolve treats the straggler as one more erasure: planDecode names whom
// the solve needs, whatever the group does not already hold is fetched, and
// the straggler's range is solved and the loser cancelled. For an aligned
// full-stripe read every other data chunk is already in hand, so the hedge
// costs exactly one extra parity read (none after an eager prefetch).
func (hr *hedgeRead) resolve(i int) {
	h, e, w := hr.h, hr.exts[i], &hr.w[i]
	lo, hi := e.Off, e.Off+e.Len
	straggler := h.geo.DataDrive(hr.stripe, e.Chunk)
	readers, lost, ok := h.planDecode(hr.stripe, []int{straggler}, map[int]bool{straggler: true})
	if !ok {
		// The stripe went degraded under us past what its parity can also
		// solve the straggler through. Stand down.
		hr.resolving, hr.hedgeDead = false, true
		return
	}
	h.stats.HedgedReads++
	got := make(map[int]parity.Buffer, len(readers))
	var fetch []int
	for _, m := range readers {
		if b, ok := hr.held(m, lo, hi); ok {
			got[m] = b
		} else {
			fetch = append(fetch, m)
		}
	}
	solve := func(fetched map[int]parity.Buffer) {
		for m, b := range fetched {
			got[m] = b
		}
		h.cores.Exec(h.cfg.Costs.Gf(int(e.Len)), func() {
			// Once the group has finished, the read may have answered and
			// its buffer — which got's held slices view and put writes —
			// been lent out and recycled: a late solve touches neither.
			if hr.finished || w.settled || w.recovering {
				return
			}
			solved, err := h.solveLost(hr.stripe, lost, got)
			if err != nil {
				hr.hedgeDead = true
				return
			}
			w.cancelLoser(h)
			h.stats.HedgeWins++
			h.observeSlow(h.layout.Drive(hr.stripe, straggler))
			hr.asm.put(e.VOff, solved[straggler])
			hr.settle(i)
		})
	}
	if len(fetch) == 0 {
		solve(nil)
		return
	}
	// A hedge that loses its own race (timeout, member loss) or meets a URE
	// on a source (no media continuation: it fails the same way) just stands
	// down: it never solves from partial sources, and the straggler's own
	// read still owns correctness.
	h.readMembers("hedge-read", hr.stripe, lo, hi, fetch, false, solve, nil,
		func([]NodeID) { hr.hedgeDead = true })
}
