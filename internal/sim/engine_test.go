package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end time = %v, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

func TestEngineAfterAndNow(t *testing.T) {
	e := NewEngine(1)
	var at1, at2 Time
	e.After(100, func() {
		at1 = e.Now()
		e.After(50, func() { at2 = e.Now() })
	})
	e.Run()
	if at1 != 100 || at2 != 150 {
		t.Fatalf("at1=%v at2=%v, want 100,150", at1, at2)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.After(10, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine(1)
	tm := e.After(10, func() {})
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
}

func TestRunUntilLeavesClockAtDeadline(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {})
	e.At(100, func() {})
	e.RunUntil(50)
	if e.Now() != 50 {
		t.Fatalf("now = %v, want 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunUntil(100)
	if e.Now() != 100 || e.Pending() != 0 {
		t.Fatalf("now=%v pending=%d after second RunUntil", e.Now(), e.Pending())
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(5, func() { count++ })
	e.At(15, func() { count++ })
	e.RunFor(10)
	if e.Now() != 10 || count != 1 {
		t.Fatalf("now=%v count=%d, want 10,1", e.Now(), count)
	}
	e.RunFor(10)
	if e.Now() != 20 || count != 2 {
		t.Fatalf("now=%v count=%d, want 20,2", e.Now(), count)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	for i := 1; i <= 100; i++ {
		e.At(Time(i), func() {
			ran++
			if ran == 10 {
				e.Stop()
			}
		})
	}
	e.Run()
	if ran != 10 {
		t.Fatalf("ran = %d events, want 10", ran)
	}
	if e.Pending() != 90 {
		t.Fatalf("pending = %d, want 90", e.Pending())
	}
}

func TestDeferRunsAfterQueuedSameInstant(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.At(10, func() {
		e.Defer(func() { got = append(got, "deferred") })
	})
	e.At(10, func() { got = append(got, "second") })
	e.Run()
	if len(got) != 2 || got[0] != "second" || got[1] != "deferred" {
		t.Fatalf("got %v, want [second deferred]", got)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var samples []int64
		var tick func()
		tick = func() {
			samples = append(samples, e.rng.Int63n(1000), int64(e.Now()))
			if len(samples) < 200 {
				e.After(Duration(1+e.rng.Int63n(50)), tick)
			}
		}
		e.After(1, tick)
		e.Run()
		return samples
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs with same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any set of scheduled delays, events fire in nondecreasing
// time order and the engine processes exactly len(delays) events.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var times []Time
		for _, d := range delays {
			e.After(Duration(d), func() { times = append(times, e.Now()) })
		}
		e.Run()
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return e.Processed() == uint64(len(delays))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refEvent and refSched are the reference the engine is checked against:
// an unordered list scanned for the least (at, seq) on every pop, with the
// engine's documented semantics and nothing else.
type refEvent struct {
	at               Time
	seq              uint64
	fn               func()
	bg, dead, popped bool
}

type refSched struct {
	now          Time
	seq          uint64
	q            []*refEvent
	handles      []*refEvent
	live, liveFG int
}

func (r *refSched) Now() Time { return r.now }

func (r *refSched) schedule(k schedKind, d Duration, fn func()) {
	if d < 0 || k == kindDefer {
		d = 0
	}
	ev := &refEvent{at: r.now + Time(d), seq: r.seq, fn: fn, bg: k == kindAfterBG}
	r.seq++
	r.live++
	if !ev.bg {
		r.liveFG++
	}
	r.q = append(r.q, ev)
	r.handles = append(r.handles, ev)
}

func (r *refSched) stop(i int) bool {
	ev := r.handles[i]
	if ev.popped || ev.dead {
		return false
	}
	ev.dead = true
	r.live--
	if !ev.bg {
		r.liveFG--
	}
	return true
}

// min returns the index of the least (at, seq) entry; the queue is non-empty.
func (r *refSched) min() int {
	m := 0
	for i, ev := range r.q {
		if ev.at < r.q[m].at || ev.at == r.q[m].at && ev.seq < r.q[m].seq {
			m = i
		}
	}
	return m
}

func (r *refSched) step(i int) {
	ev := r.q[i]
	r.q = append(r.q[:i], r.q[i+1:]...)
	ev.popped = true
	if ev.dead {
		return
	}
	r.live--
	if !ev.bg {
		r.liveFG--
	}
	r.now = ev.at
	ev.fn()
}

func (r *refSched) RunUntil(deadline Time) {
	for len(r.q) > 0 {
		i := r.min()
		if r.q[i].at > deadline {
			break
		}
		r.step(i)
	}
	if r.now < deadline {
		r.now = deadline
	}
}

func (r *refSched) Run() Time {
	for r.liveFG > 0 {
		r.step(r.min())
	}
	return r.now
}

func (r *refSched) counts() [3]int { return [3]int{len(r.q), r.live, r.liveFG} }

// engineSched drives the real engine through the same surface.
type engineSched struct {
	*Engine
	handles []Timer
}

func (s *engineSched) schedule(k schedKind, d Duration, fn func()) {
	var tm Timer
	switch k {
	case kindAt:
		tm = s.At(s.Now()+Time(d), fn)
	case kindAfter:
		tm = s.After(d, fn)
	case kindAfterBG:
		tm = s.AfterBG(d, fn)
	case kindDefer:
		tm = s.Defer(fn)
	}
	s.handles = append(s.handles, tm)
}

func (s *engineSched) stop(i int) bool { return s.handles[i].Stop() }
func (s *engineSched) counts() [3]int  { return [3]int{s.Pending(), s.Live(), s.LiveFG()} }

type schedKind int

const (
	kindAt schedKind = iota
	kindAfter
	kindAfterBG
	kindDefer
)

type scheduler interface {
	Now() Time
	schedule(k schedKind, d Duration, fn func())
	stop(handle int) bool
	RunUntil(Time)
	Run() Time
	counts() [3]int // Pending, Live, LiveFG
}

type firing struct {
	id int
	at Time
}

// diffRun is one side of the differential test. Event i's handle is
// handles[i]; what an event does when it fires depends only on its id and
// depth, so both sides make the same choices as long as they fire alike.
type diffRun struct {
	s      scheduler
	fired  []firing
	nextID int
}

func (r *diffRun) add(k schedKind, d Duration, depth int) {
	id := r.nextID
	r.nextID++
	r.s.schedule(k, d, func() { r.fire(id, depth) })
}

func (r *diffRun) fire(id, depth int) {
	r.fired = append(r.fired, firing{id, r.s.Now()})
	if depth < 2 && id%3 == 0 {
		r.add(schedKind(id%4), Duration(id%5), depth+1)
	}
	if id%4 == 1 {
		r.s.stop(id * 7 % r.nextID) // from inside a callback, possibly itself
	}
}

// TestEngineMatchesSortedReference drives the engine and the reference with
// the same random At/After/AfterBG/Defer/Stop/RunUntil/Run sequences — events
// that schedule and cancel others as they fire included — and requires the
// same firings, in the same order at the same times, the same Stop results
// and the same Pending/Live/LiveFG after every step.
func TestEngineMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := &diffRun{s: &engineSched{Engine: NewEngine(seed)}}
		ref := &diffRun{s: &refSched{}}
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(12); {
			case op < 7:
				k := schedKind(rng.Intn(4))
				d := Duration(rng.Intn(24) - 3) // ties and negative delays too
				if k == kindAt && d < 0 {
					d = -d
				}
				eng.add(k, d, 0)
				ref.add(k, d, 0)
			case op < 9:
				if eng.nextID == 0 {
					continue
				}
				i := rng.Intn(eng.nextID)
				if got, want := eng.s.stop(i), ref.s.stop(i); got != want {
					t.Fatalf("seed %d step %d: Stop(%d) = %v, reference %v", seed, step, i, got, want)
				}
			case op < 11:
				deadline := eng.s.Now() + Time(rng.Intn(30))
				eng.s.RunUntil(deadline)
				ref.s.RunUntil(deadline)
			default:
				if got, want := eng.s.Run(), ref.s.Run(); got != want {
					t.Fatalf("seed %d step %d: Run returned %v, reference %v", seed, step, got, want)
				}
			}
			if len(eng.fired) != len(ref.fired) {
				t.Fatalf("seed %d step %d: %d events fired, reference %d", seed, step, len(eng.fired), len(ref.fired))
			}
			for i := range eng.fired {
				if eng.fired[i] != ref.fired[i] {
					t.Fatalf("seed %d step %d: firing %d is %+v, reference %+v", seed, step, i, eng.fired[i], ref.fired[i])
				}
			}
			if eng.s.Now() != ref.s.Now() || eng.s.counts() != ref.s.counts() {
				t.Fatalf("seed %d step %d: now %v (Pending, Live, LiveFG) %v, reference %v %v",
					seed, step, eng.s.Now(), eng.s.counts(), ref.s.Now(), ref.s.counts())
			}
		}
		if got := eng.s.(*engineSched).Processed(); got != uint64(len(eng.fired)) {
			t.Fatalf("seed %d: Processed = %d, %d events fired", seed, got, len(eng.fired))
		}
	}
}

// TestStaleTimerCancelsNothing: a handle outlives its event's slot, which the
// next event reuses; stopping the old handle must leave the new event alone.
func TestStaleTimerCancelsNothing(t *testing.T) {
	e := NewEngine(1)
	fired := e.After(1, func() {})
	e.Run()
	stopped := e.After(1, func() {})
	stopped.Stop()
	e.RunFor(5) // reaps the cancelled entry; its slot is free again

	ran := false
	next := e.After(1, func() { ran = true })
	if next.slot != fired.slot || next.slot != stopped.slot {
		t.Fatalf("slots %d, %d, %d: the free list did not reuse the slot", fired.slot, stopped.slot, next.slot)
	}
	if fired.Stop() || stopped.Stop() {
		t.Fatal("a stale handle's Stop returned true")
	}
	if e.Live() != 1 || e.LiveFG() != 1 {
		t.Fatalf("Live %d LiveFG %d after stale Stops, want 1, 1", e.Live(), e.LiveFG())
	}
	e.Run()
	if !ran {
		t.Fatal("a stale handle cancelled the event now in its slot")
	}
	var zero Timer
	if zero.Stop() {
		t.Fatal("the zero Timer's Stop returned true")
	}
}

// TestScheduleAndRunAllocateNothing: once the heap, the slot table and the
// free list have grown, scheduling, cancelling and running events allocate
// nothing — the closure is the caller's.
func TestScheduleAndRunAllocateNothing(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	loop := func() {
		for i := 0; i < 64; i++ {
			e.After(Duration(i%8), fn)
			e.At(e.Now()+3, fn)
			e.AfterBG(Duration(i%5), fn)
			e.Defer(fn)
		}
		e.After(4, fn).Stop()
		e.RunFor(10)
	}
	loop()
	if n := testing.AllocsPerRun(100, loop); n != 0 {
		t.Fatalf("a warmed schedule-and-run loop allocates %.1f objects per run, want 0", n)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Duration(i%100), func() {})
		if e.Pending() > 1024 {
			e.Run()
		}
	}
	e.Run()
	b.ReportMetric(float64(e.Processed())/b.Elapsed().Seconds(), "events/s")
}
