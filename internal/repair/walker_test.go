package repair

import (
	"errors"
	"fmt"
	"testing"

	"draid/internal/backend"
	"draid/internal/sim"
)

// walkLog runs one walk of n items, each taking svc of virtual time, and
// records when every item started and how the walk ended.
type walkLog struct {
	starts []sim.Time
	ended  bool
	err    error
}

func startWalk(w *walker, n int64, cost int64, svc sim.Duration, bg bool, failAt int64) *walkLog {
	l := &walkLog{}
	w.walk(walkSpec{
		n: n, cost: cost, bg: bg,
		item: func(i int64, next func(error)) {
			l.starts = append(l.starts, w.eng.Now())
			var err error
			if i == failAt {
				err = fmt.Errorf("item %d broke", i)
			}
			if svc == 0 {
				next(err)
				return
			}
			w.eng.After(svc, func() { next(err) })
		},
		done: func(err error) { l.ended, l.err = true, err },
	})
	return l
}

// TestWalkerStartTimesMatchClosedForm checks the one pacing rule against its
// closed form for every combination the managers use: unthrottled and
// throttled, private bucket and shared limiter, foreground and background,
// items faster and slower than the budget's gap.
func TestWalkerStartTimesMatchClosedForm(t *testing.T) {
	const cost = 64 << 10
	gapAt := func(rateMBps float64) sim.Duration {
		if rateMBps == 0 {
			return 0
		}
		return sim.Duration(float64(cost) / (rateMBps * 1e6 / 1e9))
	}
	for _, n := range []int64{1, 5} {
		for _, rate := range []float64{0, 100, 400} {
			for _, svc := range []sim.Duration{0, 50 * sim.Microsecond, 2 * sim.Millisecond} {
				for _, shared := range []bool{false, true} {
					for _, bg := range []bool{false, true} {
						if bg && svc != 0 {
							continue // the item's own timer would be foreground work
						}
						name := fmt.Sprintf("n=%d/rate=%v/svc=%v/shared=%v/bg=%v", n, rate, svc, shared, bg)
						eng := sim.NewEngine(1)
						rt := backend.SimRunner(eng)
						eng.RunFor(3 * sim.Millisecond) // start away from time zero
						t0 := eng.Now()
						w := &walker{eng: rt, rate: rate}
						if shared {
							w.shared = NewRateLimiter(rt, rate)
						}
						l := startWalk(w, n, cost, svc, bg, -1)
						if bg {
							eng.Run()
							if len(l.starts) != 0 {
								t.Fatalf("%s: a background walk kept Run from returning (%d items ran)", name, len(l.starts))
							}
							eng.RunFor(sim.Second)
						} else {
							eng.Run()
						}
						// Item k starts one period after item k-1, the period
						// being the larger of the budget gap and the item's own
						// service time; a private bucket starts empty, so its
						// first item waits one gap, a fresh shared one does not.
						gap, period := gapAt(rate), svc
						if gap > period {
							period = gap
						}
						first := t0
						if !shared {
							first += sim.Time(gap)
						}
						if !l.ended || l.err != nil || int64(len(l.starts)) != n {
							t.Fatalf("%s: ended=%v err=%v items=%d", name, l.ended, l.err, len(l.starts))
						}
						for k, at := range l.starts {
							if want := first + sim.Time(k)*sim.Time(period); at != want {
								t.Fatalf("%s: item %d started at %v, closed form says %v", name, k, at, want)
							}
						}
						if w.active || w.done != n || w.total != n {
							t.Fatalf("%s: progress after the walk = active %v, %d/%d", name, w.active, w.done, w.total)
						}
					}
				}
			}
		}
	}
}

// Two walkers on one shared limiter split its rate: their item starts
// interleave one gap apart, so each advances at half the budget.
func TestWalkerSharedLimiterInterleaves(t *testing.T) {
	const cost, rate = 64 << 10, 100.0
	gap := sim.Time(float64(cost) / (rate * 1e6 / 1e9))
	eng := sim.NewEngine(1)
	rt := backend.SimRunner(eng)
	lim := NewRateLimiter(rt, rate)
	a, b := &walker{eng: rt, shared: lim}, &walker{eng: rt, shared: lim}
	la := startWalk(a, 4, cost, 10*sim.Microsecond, false, -1)
	lb := startWalk(b, 4, cost, 10*sim.Microsecond, false, -1)
	eng.Run()
	for k := 0; k < 4; k++ {
		if la.starts[k] != sim.Time(2*k)*gap || lb.starts[k] != sim.Time(2*k+1)*gap {
			t.Fatalf("item %d: a at %v, b at %v; want %v and %v",
				k, la.starts[k], lb.starts[k], sim.Time(2*k)*gap, sim.Time(2*k+1)*gap)
		}
	}
}

func TestWalkerStopsAtFirstError(t *testing.T) {
	eng := sim.NewEngine(1)
	w := &walker{eng: backend.SimRunner(eng), rate: 200}
	l := startWalk(w, 8, 64<<10, 20*sim.Microsecond, false, 3)
	eng.Run()
	if !l.ended || l.err == nil || l.err.Error() != "item 3 broke" {
		t.Fatalf("walk ended=%v err=%v, want item 3's error", l.ended, l.err)
	}
	if len(l.starts) != 4 || w.done != 3 || w.active {
		t.Fatalf("walk ran %d items, done=%d active=%v; want it to stop at item 3", len(l.starts), w.done, w.active)
	}
}

func TestWalkerStopPredicateEndsWalkCleanly(t *testing.T) {
	eng := sim.NewEngine(1)
	w := &walker{eng: backend.SimRunner(eng)}
	ran, err := 0, errors.New("not done")
	w.walk(walkSpec{
		n:    10,
		stop: func() bool { return ran == 4 },
		item: func(_ int64, next func(error)) { ran++; next(nil) },
		done: func(e error) { err = e },
	})
	eng.Run()
	if ran != 4 || err != nil || w.active || w.done != 4 {
		t.Fatalf("ran %d items, err %v, done %d, active %v; want a clean stop after 4", ran, err, w.done, w.active)
	}
}
