package repair

import (
	"fmt"

	"draid/internal/backend"
	"draid/internal/core"
	"draid/internal/sim"
	"draid/internal/trace"
)

// ScrubberConfig tunes the background scrubber.
type ScrubberConfig struct {
	// Interval is the virtual time between the ends of consecutive scrub
	// passes. 0 disables periodic scrubbing (RunPass still works on demand).
	Interval sim.Duration
	// RateMBps caps the scrub at this many megabytes of verified stripe data
	// (all chunks) per second, so a pass trickles along under foreground
	// I/O instead of saturating the drives. 0 means unthrottled.
	RateMBps float64
	// Limiter, when non-nil, replaces the private RateMBps bucket with the
	// cluster-shared repair budget, so concurrent scrubs and rebuilds split
	// one rate instead of each claiming their own.
	Limiter *RateLimiter
}

// ScrubStatus is a snapshot of scrubber progress.
type ScrubStatus struct {
	Enabled bool // periodic scrubbing configured (Interval > 0)
	Active  bool // a pass is currently walking stripes
	// Passes counts completed full passes; Stripe is the next stripe the
	// active pass will verify, TotalStripes the pass length.
	Passes       int64
	Stripe       int64
	TotalStripes int64
	// Cumulative across passes: stripes verified, stripes skipped (failed
	// member present), chunks rewritten after latent media errors, parity
	// chunks rewritten after coherence mismatches, stripes that failed to
	// verify at all.
	ScrubbedStripes int64
	SkippedStripes  int64
	MediaRepairs    int64
	ParityRepairs   int64
	Errors          int64
}

// Scrubber walks the array stripe by stripe in the background, verifying
// checksum and parity coherence through core.ScrubStripe and repairing latent
// errors in place — the proactive half of the integrity story (reactive
// repair-on-read catches only sectors something reads). It runs on the same
// paced walker as the rebuilder, reserving a whole stripe's bytes per item;
// periodic passes run on background timers so an idle simulation can still
// drain. It logs "scrub-repair" for a stripe it fixed, "scrub-error" for one
// it could not verify, "lost-region" for data sacrificed to a media double
// fault, and "scrub-pass" for every completed pass.
type Scrubber struct {
	w    walker
	host func() *core.HostController // the controller serving now: a pass outlives a failover
	cfg  ScrubberConfig
	log  *Log

	status  ScrubStatus
	stopped bool
}

// NewScrubber builds a scrubber for the host, logging to log. Call Start for
// periodic passes, or RunPass for a single on-demand pass.
func NewScrubber(eng backend.Runtime, host func() *core.HostController, cfg ScrubberConfig, tracer *trace.Collector, log *Log) *Scrubber {
	s := &Scrubber{w: newWalker(eng, cfg.RateMBps, cfg.Limiter, tracer, "scrub"), host: host, cfg: cfg, log: log}
	s.status.Enabled = cfg.Interval > 0
	tracer.AddGauge(s.w.track, "scrub progress", func() float64 {
		if !s.w.active || s.w.total == 0 {
			return 0
		}
		return float64(s.status.Stripe) / float64(s.w.total)
	})
	return s
}

// Status returns a snapshot of scrub progress.
func (s *Scrubber) Status() ScrubStatus {
	st := s.status
	st.Active, st.TotalStripes = s.w.active, s.w.total
	return st
}

// Start schedules the first periodic pass one interval from now. Passes run
// entirely on background timers: they never keep the engine's Run from
// returning, so simulations that do not care about scrubbing are unaffected.
func (s *Scrubber) Start() {
	if s.cfg.Interval <= 0 {
		return
	}
	s.stopped = false
	s.w.eng.AfterBG(s.cfg.Interval, func() { s.pass(true, nil) })
}

// Stop halts periodic scrubbing after the current stripe; an active pass
// does not resume.
func (s *Scrubber) Stop() { s.stopped = true }

// RunPass runs one full foreground pass and reports the resulting status.
// Foreground means the engine's Run drains it — the deterministic way to
// scrub in tests and admin flows ("scrub now").
func (s *Scrubber) RunPass(cb func(ScrubStatus, error)) {
	s.pass(false, cb)
}

// pass walks every stripe once. bg selects background timers (periodic
// passes) vs foreground timers (RunPass).
func (s *Scrubber) pass(bg bool, cb func(ScrubStatus, error)) {
	if s.w.active || (bg && s.stopped) {
		if cb != nil {
			st := s.Status()
			s.w.eng.Defer(func() { cb(st, fmt.Errorf("repair: scrub pass already active")) })
		}
		return
	}
	geo := s.host().Geometry()
	total := s.host().Size() / geo.StripeDataSize()
	s.status.Stripe = 0
	s.w.walk(walkSpec{
		label: fmt.Sprintf("scrub pass %d", s.status.Passes), unit: "stripes",
		n: total, cost: int64(geo.Width) * geo.ChunkSize, // a scrub touches every chunk of the stripe
		bg:   bg,
		stop: func() bool { return bg && s.stopped },
		item: func(stripe int64, next func(error)) {
			s.status.Stripe = stripe
			s.scrub(stripe, next)
		},
		done: func(error) {
			s.status.Passes++
			s.log.Add("scrub-pass", -1, fmt.Sprintf("pass %d: %d stripes, %d media repairs, %d parity repairs",
				s.status.Passes, total, s.status.MediaRepairs, s.status.ParityRepairs))
			if cb != nil {
				cb(s.Status(), nil)
			}
			if bg && !s.stopped && s.cfg.Interval > 0 {
				s.w.eng.AfterBG(s.cfg.Interval, func() { s.pass(true, nil) })
			}
		},
	})
}

// scrub verifies one stripe on the current controller and books the outcome.
func (s *Scrubber) scrub(stripe int64, next func(error)) {
	h := s.host()
	lostBefore := h.LostRegionsEver()
	h.ScrubStripe(stripe, func(res core.ScrubResult, err error) {
		if err != nil && s.host() != h {
			// The controller was replaced under the stripe (crashed and
			// adopted, or fenced by a successor): redo it on the new one.
			s.scrub(stripe, next)
			return
		}
		if delta := h.LostRegionsEver() - lostBefore; delta > 0 {
			s.log.Add("lost-region", -1, fmt.Sprintf("stripe %d: %d range(s) lost during scrub", stripe, delta))
		}
		switch {
		case err != nil:
			// One bad stripe must not wedge the pass: note it, move on.
			s.status.Errors++
			s.log.Add("scrub-error", -1, fmt.Sprintf("stripe %d: %v", stripe, err))
		case res.Skipped:
			s.status.SkippedStripes++
		default:
			s.status.ScrubbedStripes++
			if res.MediaRepairs > 0 || res.ParityRepairs > 0 {
				s.status.MediaRepairs += int64(res.MediaRepairs)
				s.status.ParityRepairs += int64(res.ParityRepairs)
				s.log.Add("scrub-repair", -1, fmt.Sprintf("stripe %d: %d media, %d parity chunk(s) rewritten",
					stripe, res.MediaRepairs, res.ParityRepairs))
			}
		}
		next(nil)
	})
}
