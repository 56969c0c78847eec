package repair

import (
	"draid/internal/backend"
	"draid/internal/trace"
)

// walker is the one paced work-list loop behind every repair manager —
// rebuild, rebalance fill and drain, scrub, failover resync. A walk visits n
// items in order, one at a time: each item is an asynchronous function that
// reports its outcome, the first error ends the walk (a manager that wants to
// continue past a bad item simply does not report it), and every item start
// is paced by reserving the item's bytes from a rate budget. The walker also
// keeps the bookkeeping the managers expose: progress counters and one trace
// span per walk.
//
// Pacing is always a RateLimiter. With a shared limiter the walk draws from
// the cluster-wide budget alongside every other walker holding it; without
// one, each walk gets a private bucket at the manager's own rate — two
// managers on one array (a rebuild next to a rebalance) then each run at the
// full rate, independently.
type walker struct {
	eng    backend.Runtime
	rate   float64      // MB/s of the private per-walk bucket; 0 = unthrottled
	shared *RateLimiter // replaces the private bucket when non-nil
	tracer *trace.Collector
	track  trace.Track

	// Progress of the current (or last) walk.
	active bool
	done   int64 // items completed
	total  int64
}

// newWalker builds a walker whose spans land on the "repair"/name timeline.
func newWalker(eng backend.Runtime, rateMBps float64, shared *RateLimiter, tracer *trace.Collector, name string) walker {
	return walker{eng: eng, rate: rateMBps, shared: shared, tracer: tracer, track: tracer.Track("repair", name)}
}

// walkSpec describes one walk.
type walkSpec struct {
	label, unit string // trace span name, and the name of its item-count argument
	n           int64
	cost        int64 // bytes reserved from the rate budget per item
	// bg paces on background timers: the walk never keeps Run from
	// returning (periodic maintenance). Foreground walks are drained by Run.
	bg bool
	// stop, when non-nil, is polled before each item; true ends the walk
	// early and cleanly.
	stop func() bool
	// item does the work of item i and calls next exactly once: nil to go
	// on, an error to end the walk with it.
	item func(i int64, next func(error))
	// done fires once, after the last item or the first error.
	done func(error)
}

func (w *walker) walk(s walkSpec) {
	lim := w.shared
	if lim == nil {
		// A private bucket starts each walk empty: the first item waits one
		// item's worth of budget, like every later one.
		lim = NewRateLimiter(w.eng, w.rate)
		lim.Reserve(s.cost)
	}
	w.active, w.done, w.total = true, 0, s.n
	span := w.tracer.Begin(w.track, "repair", s.label, trace.I64(s.unit, s.n)) // nil when tracing is off
	finish := func(err error) {
		result := "ok"
		if err != nil {
			result = "aborted"
		}
		span.End(trace.Str("result", result))
		w.active = false
		s.done(err)
	}

	var step func(i int64)
	step = func(i int64) {
		if i >= s.n || (s.stop != nil && s.stop()) {
			finish(nil)
			return
		}
		run := func() {
			s.item(i, func(err error) {
				if err != nil {
					finish(err)
					return
				}
				w.done = i + 1
				step(i + 1)
			})
		}
		// Token bucket: the item may not start before the bytes reserved
		// ahead of it have "drained" at the budget's rate.
		switch wait := lim.Reserve(s.cost); {
		case s.bg:
			w.eng.AfterBG(wait, run)
		case wait > 0:
			w.eng.After(wait, run)
		default:
			w.eng.Defer(run)
		}
	}
	step(0)
}
