package repair

import (
	"encoding/json"
	"errors"
	"fmt"

	"draid/internal/backend"
	"draid/internal/core"
	"draid/internal/trace"
)

// RebuilderConfig tunes repair throttling.
type RebuilderConfig struct {
	// RateMBps caps a walk at this many megabytes of relocated chunk data
	// per second (the Figure 17 rebuild-vs-foreground knob). 0 means
	// unthrottled: chunks move back-to-back.
	RateMBps float64
	// Limiter, when non-nil, replaces the private RateMBps bucket with a
	// budget shared across volumes: every rebuilder on the cluster reserves
	// its chunk bytes from the same bucket, so concurrent rebuilds split
	// the rate instead of each claiming it in full.
	Limiter *RateLimiter
}

// Status is a snapshot of a Rebuilder's current (or last) walk.
type Status struct {
	Active bool
	Label  string      // what the walk is, e.g. "rebuild m2→n5", "drain d3"
	Drive  int         // drive being rebuilt, filled or drained
	Dest   core.NodeID // spare endpoint rebuilt onto (fixed layout only)
	// Done/Total count the walk's items: stripes of a spare rebuild, chunk
	// relocations otherwise. Done includes skipped items.
	Done, Total int64
	// Skipped counts planned moves abandoned because their target slot was
	// claimed by a racing rebuild or migration.
	Skipped int64
	// LostRegions counts lost ranges recorded during this walk: nonzero
	// means some stripes were relocated with unrecoverable holes.
	LostRegions int64
	Err         error // what ended the walk, once it is no longer Active
}

// MarshalJSON renders Err as its message ("" for none): an error value has
// no exported fields and would otherwise marshal as {}.
func (s Status) MarshalJSON() ([]byte, error) {
	type fields Status // the same fields without this method
	msg := ""
	if s.Err != nil {
		msg = s.Err.Error()
	}
	return json.Marshal(struct {
		fields
		Err string
	}{fields(s), msg})
}

// Rebuilder drives one host-planned repair (core.Repair) at a time through
// the paced walker: the rebuild of a failed drive — onto a hot spare or into
// distributed spare slots, the host decides — the fill of an added drive,
// the drain of a leaving one. Every item relocates one chunk under its
// stripe's write lock, so foreground I/O keeps serving throughout. A stripe
// relocated with data lost to a media double fault (a survivor URE past the
// parity budget — the RAID-5 rebuild hazard) is logged as "lost-region"; the
// walk continues, and the affected bytes are in the host's lost-region list.
type Rebuilder struct {
	w      walker
	host   func() *core.HostController // the one serving now: a walk outlives a failover
	log    *Log
	status Status
}

// ErrBusy refuses a walk while the manager's previous one is still running.
var ErrBusy = errors.New("repair: previous walk still active")

// NewRebuilder builds a repair manager whose walks show on the
// "repair"/name trace timeline and whose lost stripes go to log.
func NewRebuilder(eng backend.Runtime, host func() *core.HostController, cfg RebuilderConfig, tracer *trace.Collector, log *Log, name string) *Rebuilder {
	r := &Rebuilder{w: newWalker(eng, cfg.RateMBps, cfg.Limiter, tracer, name), host: host, log: log}
	tracer.AddGauge(r.w.track, name+" progress", func() float64 {
		if r.w.total == 0 {
			return 0
		}
		return float64(r.w.done) / float64(r.w.total)
	})
	return r
}

// Status returns a snapshot of the current (or last) walk.
func (r *Rebuilder) Status() Status {
	st := r.status
	st.Active, st.Done, st.Total = r.w.active, r.w.done, r.w.total
	return st
}

// Run has the current controller plan a repair and walks it, reporting the
// outcome to cb: the first item error aborts the walk (the plan's Finish
// abandons whatever was half done), a clean walk commits. One walk at a
// time, checked here and nowhere else: a busy manager returns ErrBusy without
// calling plan, so nothing was claimed or changed. A planning error is
// returned as is.
func (r *Rebuilder) Run(plan func(*core.HostController) (core.Repair, error), cb func(error)) error {
	if r.w.active {
		return fmt.Errorf("%w: %s", ErrBusy, r.status.Label)
	}
	p, err := plan(r.host())
	if err != nil {
		return err
	}
	r.status = Status{Label: p.Label, Drive: p.Drive, Dest: p.Dest}
	r.w.walk(walkSpec{
		label: p.Label, unit: p.Unit, n: p.Items, cost: p.ItemBytes,
		item: func(i int64, next func(error)) { r.relocate(p, i, next) },
		done: func(err error) {
			p.Finish(r.host(), err)
			r.status.Err = err
			cb(err)
		},
	})
	return nil
}

// relocate runs item i of the plan on the current controller.
func (r *Rebuilder) relocate(p core.Repair, i int64, next func(error)) {
	h := r.host()
	lostBefore := h.LostRegionsEver()
	p.Do(h, i, func(err error) {
		if err != nil && r.host() != h {
			// The controller was replaced under the item (crashed and
			// adopted, or fenced by a successor): redo it on the new one.
			r.relocate(p, i, next)
			return
		}
		if delta := h.LostRegionsEver() - lostBefore; delta > 0 {
			r.status.LostRegions += delta
			r.log.Add("lost-region", p.Drive, fmt.Sprintf("stripe %d relocated with unrecoverable hole", p.Stripe(i)))
		}
		switch {
		case errors.Is(err, core.ErrSlotTaken):
			r.status.Skipped++
			err = nil
		case err != nil:
			err = fmt.Errorf("repair: %s: stripe %d: %w", p.Label, p.Stripe(i), err)
		}
		next(err)
	})
}
