// Package repair is the fault-supervision and recovery subsystem: automatic
// failure detection (heartbeats + data-path evidence escalating through a
// healthy → suspect → failed state machine), hot-spare rebuild orchestration
// throttled to preserve foreground service (Figure 17), and host failover
// driven by the §5.4 write-intent bitmap. The paper's Table 1 credits dRAID
// with fault tolerance and fast recovery; this package is the control plane
// that makes those properties automatic rather than test-fixture toggles.
package repair

import (
	"fmt"

	"draid/internal/backend"
	"draid/internal/core"
	"draid/internal/sim"
	"draid/internal/trace"
)

// MemberState is a member's position in the detection state machine.
type MemberState int

// Detection states form the health lattice healthy → degraded → suspect →
// failed. Degraded members answer correctly but slowly (grey failure:
// repeated hedge losses); they are still served I/O and are one fault away
// from Suspect. Suspect members are still served I/O (with §5.4 retries);
// Failed members are handed to the rebuild manager.
const (
	Healthy MemberState = iota
	Degraded
	Suspect
	Failed
)

// String names the state.
func (s MemberState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Suspect:
		return "suspect"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("MemberState(%d)", int(s))
}

// MarshalText renders the state as its name, so status JSON reads "failed"
// rather than 3.
func (s MemberState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// DetectorConfig tunes the failure detector.
type DetectorConfig struct {
	// FailAfter is how many unconfirmed strikes (op timeouts, missed
	// heartbeats with the node not observably down) escalate a suspect to
	// failed. Default 3. Confirmed evidence — the member's node observed
	// down, or a drive-reported error — escalates immediately.
	FailAfter int
	// HeartbeatEvery is the probe period; 0 disables active probing (the
	// detector then sees only passive data-path evidence). Default when
	// probing is wanted: 10ms.
	HeartbeatEvery sim.Duration
	// HeartbeatTimeout is the per-probe deadline. Default HeartbeatEvery/2.
	HeartbeatTimeout sim.Duration
	// Grace is the quiet window after which accumulated strikes are
	// forgotten: a burst of transient drops older than Grace no longer
	// counts toward escalation. Default 4×HeartbeatEvery (or 40ms when
	// probing is disabled).
	Grace sim.Duration
	// DegradeAfter is how many slow strikes (hedge losses reported via
	// ObserveSlow) mark a healthy member degraded. Default 8.
	DegradeAfter int
	// EvictAfter is how many slow strikes evict a persistently slow member
	// (healthy → degraded → suspect at EvictAfter/2 → failed at EvictAfter).
	// Default 64; negative disables slow-strike eviction entirely (members
	// can still reach Degraded/Suspect via DegradeAfter, but never Failed
	// on slowness alone).
	EvictAfter int
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.HeartbeatEvery > 0 && c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = c.HeartbeatEvery / 2
	}
	if c.Grace <= 0 {
		if c.HeartbeatEvery > 0 {
			c.Grace = 4 * c.HeartbeatEvery
		} else {
			c.Grace = 40 * sim.Millisecond
		}
	}
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = 8
	}
	if c.EvictAfter == 0 {
		c.EvictAfter = 64
	}
	return c
}

type memberHealth struct {
	state       MemberState
	strikes     int
	lastFault   sim.Time
	slowStrikes int
	lastSlow    sim.Time
}

// Detector escalates per-member evidence through healthy → suspect → failed.
// It implements core.HealthSink, so installing it on a HostController makes
// every op timeout and error completion feed the state machine; Start adds
// active heartbeat probing on top.
type Detector struct {
	eng     backend.Runtime
	host    func() *core.HostController
	cfg     DetectorConfig
	members []memberHealth
	onFail  func(member int)
	ticker  backend.Timer

	track  trace.Track
	tracer *trace.Collector
	// Transition counters, exposed for tests and the demo.
	DegradeTransitions int64
	SuspectTransitions int64
	FailTransitions    int64
}

// NewDetector builds a detector over the host's drives (the stripe width
// for a fixed layout, the whole cluster for a declustered one). onFail
// fires (via the engine, never synchronously inside evidence delivery)
// exactly once per healthy→failed transition.
func NewDetector(eng backend.Runtime, host func() *core.HostController, cfg DetectorConfig, tracer *trace.Collector, onFail func(member int)) *Detector {
	d := &Detector{
		eng:     eng,
		host:    host,
		cfg:     cfg.withDefaults(),
		members: make([]memberHealth, host().Drives()),
		onFail:  onFail,
		tracer:  tracer,
	}
	if tracer.Enabled() {
		d.track = tracer.Track("repair", "detector")
		tracer.AddGauge(d.track, "suspect members", func() float64 {
			n := 0
			for _, m := range d.members {
				if m.state == Suspect {
					n++
				}
			}
			return float64(n)
		})
	}
	return d
}

// Start begins periodic heartbeat probing (no-op when HeartbeatEvery is 0).
// The ticker is a background event: it never keeps Engine.Run from
// returning, so probing only advances while foreground work runs or the
// caller drives time with RunFor/RunUntil.
func (d *Detector) Start() {
	if d.cfg.HeartbeatEvery <= 0 || d.ticker != nil {
		return
	}
	var tick func()
	tick = func() {
		for m := range d.members {
			if d.members[m].state == Failed {
				continue
			}
			d.host().Probe(m, d.cfg.HeartbeatTimeout, func(bool) {})
		}
		d.ticker = d.eng.AfterBG(d.cfg.HeartbeatEvery, tick)
	}
	d.ticker = d.eng.AfterBG(d.cfg.HeartbeatEvery, tick)
}

// Stop cancels the probe ticker.
func (d *Detector) Stop() {
	if d.ticker != nil {
		d.ticker.Stop()
		d.ticker = nil
	}
}

// Grow extends the detector to cover n drives — the online drive-add path.
// Existing state is preserved; new drives start healthy.
func (d *Detector) Grow(n int) {
	for len(d.members) < n {
		d.members = append(d.members, memberHealth{})
	}
}

// State returns member's current detection state.
func (d *Detector) State(member int) MemberState {
	if member >= len(d.members) {
		return Healthy
	}
	return d.members[member].state
}

// States returns a snapshot of all member states.
func (d *Detector) States() []MemberState {
	out := make([]MemberState, len(d.members))
	for i, m := range d.members {
		out[i] = m.state
	}
	return out
}

// ObserveFault implements core.HealthSink: one strike of evidence against
// member. Confirmed evidence escalates straight to failed; unconfirmed
// strikes accumulate toward FailAfter, decaying after a quiet Grace window.
func (d *Detector) ObserveFault(member int, confirmed bool) {
	d.Grow(member + 1)
	mh := &d.members[member]
	if mh.state == Failed {
		return
	}
	now := d.eng.Now()
	if mh.strikes > 0 && now-mh.lastFault > sim.Time(d.cfg.Grace) {
		mh.strikes = 0 // stale suspicion: transient trouble long past
	}
	mh.lastFault = now
	if confirmed {
		mh.strikes = d.cfg.FailAfter
	} else {
		mh.strikes++
	}
	if mh.strikes >= d.cfg.FailAfter {
		d.escalate(member, Failed)
		return
	}
	if mh.state < Suspect {
		d.escalate(member, Suspect)
	}
}

// ObserveSlow implements core.SlowSink: one strike of grey-failure evidence —
// the member completed successfully, but so slowly that a hedged parity solve
// beat it. Slow strikes decay only after a quiet Grace window, never on fast
// completions (grey drives still complete; an OK proves nothing about
// latency). Enough strikes walk the member down the lattice healthy →
// degraded → suspect → failed, so a persistently fading drive is eventually
// evicted and rebuilt instead of dragging every stripe it serves.
func (d *Detector) ObserveSlow(member int) {
	d.Grow(member + 1)
	mh := &d.members[member]
	if mh.state == Failed {
		return
	}
	now := d.eng.Now()
	if mh.slowStrikes > 0 && now-mh.lastSlow > sim.Time(d.cfg.Grace) {
		mh.slowStrikes = 0 // stale sluggishness: a transient brown-out long past
	}
	mh.lastSlow = now
	mh.slowStrikes++
	if d.cfg.EvictAfter > 0 && mh.slowStrikes >= d.cfg.EvictAfter {
		d.escalate(member, Failed)
		return
	}
	if t := d.slowTier(mh); t > mh.state {
		d.escalate(member, t)
	}
}

// slowTier maps a member's accumulated slow strikes to the minimum lattice
// state they pin it at.
func (d *Detector) slowTier(mh *memberHealth) MemberState {
	if d.cfg.EvictAfter > 0 && mh.slowStrikes >= d.cfg.EvictAfter/2 {
		return Suspect
	}
	if mh.slowStrikes >= d.cfg.DegradeAfter {
		return Degraded
	}
	return Healthy
}

// ObserveOK implements core.HealthSink: successful completions repair fault
// suspicion one strike at a time. Slow strikes are deliberately untouched —
// a grey drive's completions are all "successful" — so a slow-suspect member
// is not instantly re-promoted; it de-escalates only as far as its slow tier
// allows, and Degraded itself clears only after a quiet Grace window with no
// new slow evidence.
func (d *Detector) ObserveOK(member int) {
	d.Grow(member + 1)
	mh := &d.members[member]
	now := d.eng.Now()
	if mh.slowStrikes > 0 && now-mh.lastSlow > sim.Time(d.cfg.Grace) {
		mh.slowStrikes = 0
	}
	switch mh.state {
	case Suspect:
		if mh.strikes > 0 {
			mh.strikes--
		}
		if mh.strikes == 0 {
			if t := d.slowTier(mh); t < Suspect {
				d.escalate(member, t)
			}
		}
	case Degraded:
		if mh.strikes == 0 && d.slowTier(mh) == Healthy {
			d.escalate(member, Healthy)
		}
	}
}

// ForceFail escalates member to failed by administrative decree (the
// explicit FailDrive path). No-op if already failed.
func (d *Detector) ForceFail(member int) {
	d.Grow(member + 1)
	if d.members[member].state == Failed {
		return
	}
	d.members[member].strikes = d.cfg.FailAfter
	d.escalate(member, Failed)
}

// Reset returns member to healthy — called after a completed rebuild has
// promoted a spare in its place.
func (d *Detector) Reset(member int) {
	d.members[member] = memberHealth{}
}

func (d *Detector) escalate(member int, to MemberState) {
	from := d.members[member].state
	d.members[member].state = to
	if d.tracer.Enabled() {
		d.tracer.Instant(d.track, "repair", fmt.Sprintf("m%d %s→%s", member, from, to),
			trace.I64("member", int64(member)))
	}
	switch to {
	case Degraded:
		d.DegradeTransitions++
	case Suspect:
		d.SuspectTransitions++
	case Failed:
		d.FailTransitions++
		if d.onFail != nil {
			// Defer: evidence arrives from inside host completion/deadline
			// handlers; the fail action must not re-enter the controller on
			// this stack.
			m := member
			d.eng.Defer(func() { d.onFail(m) })
		}
	}
}
