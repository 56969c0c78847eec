package core

import (
	"fmt"
	"sort"

	"draid/internal/backend"
	"draid/internal/blockdev"
	"draid/internal/hist"
	"draid/internal/nvmeof"
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

	settled []bool
	// recovering marks extents whose primary handed off to media recovery
	// or the degraded path — those paths own the extent's completion and
	// already read parity themselves, so the hedge must stand down.
	recovering  []bool
	ops         []*stripeOp
	outstanding int

	timer     backend.Timer
	triggered bool
	finished  bool
	hedgeDead bool // a hedge attempt failed; primary path owns the op now
	resolving bool

	// Eager-parity prefetch state.
	parityOp    *stripeOp
	parityBuf   parity.Buffer
	parityReady bool
	parityLo    int64 // intra-chunk offset the prefetch covers
}

// hedgedReadStripe issues the group's primary reads and arms the hedge.
// Calls done exactly once when every extent has settled (or failed, with
// *fail set).
func (h *HostController) hedgedReadStripe(stripe int64, exts []raid.Extent, asm *assembler, fail *error, done func()) {
	hr := &hedgeRead{
		h: h, stripe: stripe, exts: exts, asm: asm, fail: fail, done: done,
		settled:     make([]bool, len(exts)),
		recovering:  make([]bool, len(exts)),
		ops:         make([]*stripeOp, len(exts)),
		outstanding: len(exts),
	}
	for i := range exts {
		hr.issuePrimary(i, 0)
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

// issuePrimary sends the plain read for extent i (attempt counts retries).
func (hr *hedgeRead) issuePrimary(i, attempt int) {
	h := hr.h
	e := hr.exts[i]
	member := h.geo.DataDrive(e.Stripe, e.Chunk)
	drive := h.layout.Drive(e.Stripe, member)
	target := h.nodeAt(e.Stripe, member)
	absOff := h.driveOff(e.Stripe) + e.Off
	sent := h.rt.Now()
	op := h.newStripeOp("read", e.Stripe, 1, []NodeID{target},
		func() {
			h.hedge.record(drive, sim.Duration(h.rt.Now()-sent))
			hr.ops[i] = nil
			hr.settle(i)
		},
		func(missing []NodeID) { hr.primaryFailed(i, missing, attempt) },
	)
	hr.ops[i] = op
	op.onPayload = func(_ NodeID, _ nvmeof.Command, b parity.Buffer) {
		if !hr.settled[i] {
			hr.asm.put(e.VOff, b)
		}
		b.Release()
	}
	op.onMediaErr = func(m int, _ nvmeof.Command) {
		// Media recovery owns this extent now; the hedge must not race it
		// (it writes the same assembler), and abandoning the straggler here
		// would be wrong anyway — the URE victim's data comes back through
		// the parity gather inside recovery.
		hr.ops[i] = nil
		hr.recovering[i] = true
		h.mediaRecoverExtent(e, m, hr.asm, hr.fail, func() { hr.settle(i) })
	}
	h.send(op, target, nvmeof.Command{Opcode: nvmeof.OpRead, Offset: absOff, Length: e.Len}, parity.Buffer{})
}

// primaryFailed mirrors readFailurePath for a hedged group's extent.
func (hr *hedgeRead) primaryFailed(i int, missing []NodeID, attempt int) {
	h := hr.h
	e := hr.exts[i]
	if hr.settled[i] || hr.finished {
		return
	}
	if attempt >= h.maxRetries() {
		*hr.fail = fmt.Errorf("core: stripe %d read: retries exhausted: %w", e.Stripe, blockdev.ErrTimeout)
		hr.ops[i] = nil
		hr.settle(i)
		return
	}
	h.stats.Retries++
	if len(missing) == 0 {
		h.retryAfter(attempt, func() {
			if !hr.settled[i] && !hr.finished {
				hr.issuePrimary(i, attempt+1)
			}
		})
		return
	}
	for _, m := range missing {
		h.failNode(m)
	}
	hr.ops[i] = nil
	hr.recovering[i] = true
	h.degradedReadStripe(e.Stripe, e, nil, hr.asm, hr.fail, func() { hr.settle(i) })
}

// settle marks extent i complete; the last settle finishes the group.
func (hr *hedgeRead) settle(i int) {
	if hr.settled[i] || hr.finished {
		return
	}
	hr.settled[i] = true
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
	if hr.parityOp != nil {
		hr.h.cancelOp(hr.parityOp, "hedge-unused")
		hr.parityOp = nil
	}
	hr.done()
}

func (hr *hedgeRead) trigger() {
	hr.triggered = true
	hr.maybeResolve()
}

// maybeResolve hedges when the trigger has fired and exactly one extent is
// still outstanding — the straggler condition. (With two or more stragglers
// RAID-5 parity cannot solve them all; the §5.4 deadline handles genuine
// multi-member trouble.)
func (hr *hedgeRead) maybeResolve() {
	if hr.finished || !hr.triggered || hr.hedgeDead || hr.resolving {
		return
	}
	if hr.outstanding != 1 {
		return
	}
	i := -1
	for j := range hr.settled {
		if !hr.settled[j] {
			i = j
			break
		}
	}
	if i < 0 || hr.recovering[i] {
		return
	}
	h := hr.h
	if h.memberFailed(hr.stripe, h.geo.PDrive(hr.stripe)) {
		return // no parity to solve through
	}
	if h.hedge.cfg.Policy == HedgeEagerParity && hr.parityOp != nil && !hr.parityReady {
		return // parity prefetch still in flight; its completion re-checks
	}
	hr.resolving = true
	h.stats.HedgedReads++
	hr.resolve(i)
}

// prefetchParity issues the eager-parity read covering the union of the
// group's intra-chunk ranges, so any later single straggler can be solved
// without another round trip to the P member.
func (hr *hedgeRead) prefetchParity() {
	h := hr.h
	lo, hi := unionRange(hr.exts)
	pDrive := h.geo.PDrive(hr.stripe)
	if h.memberFailed(hr.stripe, pDrive) {
		return
	}
	target := h.nodeAt(hr.stripe, pDrive)
	op := h.newStripeOp("hedge-parity", hr.stripe, 1, []NodeID{target},
		func() {
			hr.parityOp = nil
			hr.parityReady = true
			hr.maybeResolve()
		},
		func([]NodeID) {
			hr.parityOp = nil
			hr.hedgeDead = true
		},
	)
	op.onPayload = func(_ NodeID, _ nvmeof.Command, b parity.Buffer) { hr.parityBuf = b.Disown() }
	op.onMediaErr = func(int, nvmeof.Command) {
		hr.parityOp = nil
		hr.hedgeDead = true
	}
	hr.parityOp = op
	hr.parityLo = lo
	h.send(op, target, nvmeof.Command{
		Opcode: nvmeof.OpRead, Offset: h.driveOff(hr.stripe) + lo, Length: hi - lo,
	}, parity.Buffer{})
}

// resolve reads whatever the XOR solve still needs — the P chunk (unless
// prefetched) and any data chunk not covered by a settled extent — then
// solves the straggler's range and cancels the loser. For an aligned
// full-stripe read every other data chunk is already in hand, so the hedge
// costs exactly one extra parity read.
func (hr *hedgeRead) resolve(i int) {
	h := hr.h
	e := hr.exts[i]
	stripe := hr.stripe
	rOff, rLen := e.Off, e.Len
	absOff := h.driveOff(stripe) + rOff

	// Classify every other data chunk: covered by a settled extent (slice
	// the assembler) or fetched by the hedge op.
	type cover struct {
		target NodeID
		buf    parity.Buffer
	}
	var settledSrcs []parity.Buffer
	var fetches []*cover
	byNode := make(map[NodeID]*cover)
	for c := 0; c < h.geo.DataChunks(); c++ {
		if c == e.Chunk {
			continue
		}
		d := h.geo.DataDrive(stripe, c)
		if h.memberFailed(stripe, d) {
			// The stripe went degraded under us (rebuild/eviction races);
			// reconstruction through this path needs the full §6.1
			// machinery, not a hedge. Stand down.
			hr.resolving = false
			hr.hedgeDead = true
			return
		}
		var own *raid.Extent
		for j := range hr.exts {
			if hr.settled[j] && hr.exts[j].Chunk == c &&
				hr.exts[j].Off <= rOff && hr.exts[j].Off+hr.exts[j].Len >= rOff+rLen {
				own = &hr.exts[j]
				break
			}
		}
		if own != nil && !hr.asm.elided {
			settledSrcs = append(settledSrcs,
				hr.asm.buf.Slice(int(own.VOff+(rOff-own.Off)), int(rLen)))
			continue
		}
		if own != nil && hr.asm.elided {
			// Size-only mode: the data "exists", no bytes to slice.
			continue
		}
		cv := &cover{target: h.nodeAt(stripe, d)}
		fetches = append(fetches, cv)
		byNode[cv.target] = cv
	}

	needParity := !(hr.parityReady && hr.parityLo <= rOff)
	expect := len(fetches)
	if needParity {
		expect++
	}
	pTarget := h.nodeAt(stripe, h.geo.PDrive(stripe))

	solve := func(pBuf parity.Buffer, elided bool) {
		h.cores.Exec(h.cfg.Costs.Gf(int(rLen)), func() {
			if hr.finished || hr.settled[i] || hr.recovering[i] {
				return
			}
			var out parity.Buffer
			if elided {
				out = parity.Sized(int(rLen))
			} else {
				acc := pBuf.Clone()
				for _, s := range settledSrcs {
					acc = parity.XORInto(acc, s)
				}
				for _, cv := range fetches {
					acc = parity.XORInto(acc, cv.buf)
				}
				out = acc
			}
			if op := hr.ops[i]; op != nil {
				h.cancelOp(op, "hedged")
				hr.ops[i] = nil
			}
			h.stats.HedgeWins++
			h.observeSlow(h.layout.Drive(stripe, h.geo.DataDrive(stripe, e.Chunk)))
			hr.asm.put(e.VOff, out)
			hr.settle(i)
		})
	}

	if expect == 0 {
		// Eager prefetch already delivered the parity and every data chunk
		// is settled: solve straight away.
		pBuf := hr.parityBuf
		elided := hr.asm.elided || pBuf.Elided()
		if !elided {
			pBuf = pBuf.Slice(int(rOff-hr.parityLo), int(rLen))
		}
		solve(pBuf, elided)
		return
	}

	watch := make([]NodeID, 0, expect)
	if needParity {
		watch = append(watch, pTarget)
	}
	for _, cv := range fetches {
		watch = append(watch, cv.target)
	}
	var pPayload parity.Buffer
	op := h.newStripeOp("hedge-read", stripe, expect, watch,
		func() {
			var pBuf parity.Buffer
			if needParity {
				pBuf = pPayload
			} else {
				pBuf = hr.parityBuf
				if !pBuf.Elided() {
					pBuf = pBuf.Slice(int(rOff-hr.parityLo), int(rLen))
				}
			}
			elided := hr.asm.elided || pBuf.Elided()
			if !elided {
				for _, cv := range fetches {
					if cv.buf.Elided() {
						elided = true
						break
					}
				}
			}
			solve(pBuf, elided)
		},
		func([]NodeID) {
			// The hedge lost its own race (timeout, member loss). The
			// primary straggler still owns correctness; just stand down.
			hr.hedgeDead = true
		},
	)
	op.onPayload = func(from NodeID, _ nvmeof.Command, b parity.Buffer) {
		b = b.Disown() // kept for the solve
		if cv := byNode[from]; cv != nil {
			cv.buf = b
			return
		}
		if from == pTarget {
			pPayload = b
		}
	}
	op.onMediaErr = func(int, nvmeof.Command) {
		// A hedge source hit a URE: never solve from partial sources. The
		// primary path (and repair-on-read, if the straggler itself faults)
		// retains responsibility for this extent.
		hr.hedgeDead = true
	}
	if needParity {
		h.send(op, pTarget, nvmeof.Command{Opcode: nvmeof.OpRead, Offset: absOff, Length: rLen}, parity.Buffer{})
	}
	for _, cv := range fetches {
		h.send(op, cv.target, nvmeof.Command{Opcode: nvmeof.OpRead, Offset: absOff, Length: rLen}, parity.Buffer{})
	}
}
