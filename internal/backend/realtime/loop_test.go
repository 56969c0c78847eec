package realtime

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"draid/internal/backend"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/sim"
)

// within fails the test unless done closes inside a generous deadline.
func within(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still waiting after 5 s", what)
	}
}

// runReturns fails the test unless bed.Run() returns inside the deadline.
func runReturns(t *testing.T, bed *Bed, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { bed.Run(); close(done) }()
	within(t, done, what)
}

// tokensReturn waits for the foreground count to reach zero. Run() cannot be
// the probe on a closed bed: it returns at once there, tokens or no tokens.
func tokensReturn(t *testing.T, bed *Bed) {
	t.Helper()
	for dl := time.Now().Add(5 * time.Second); bed.fg.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(dl) {
			t.Fatalf("%d foreground tokens never returned", bed.fg.Load())
		}
	}
}

// TestLoopOrder pins the FIFO guarantee protocol code relies on: each
// producer's tasks run in its post order, a task never runs before the
// Defer/Exec that queued it returns, and a task a loop posts to itself runs
// after everything that was queued before it — with producers on other
// goroutines cutting the queue into batches at arbitrary points.
func TestLoopOrder(t *testing.T) {
	const producers, perProducer, selfEvery = 4, 2000, 7
	bed := NewBed(1, 1)
	defer bed.Close()
	rt := bed.NodeRuntime(0)

	// posted[p] counts producer p's Defer calls that have returned; ran[p]
	// and the rest are touched only on the loop.
	var posted [producers]atomic.Int64
	var ran [producers]int64
	var bad []string
	fail := func(s string) {
		if len(bad) < 5 {
			bad = append(bad, s)
		}
	}
	children, lastChild := 0, 0

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := int64(0); i < perProducer; i++ {
				rt.Defer(func() {
					if ran[p] != i {
						fail("a producer's tasks ran out of post order")
					}
					ran[p]++
					if i%selfEvery != 0 {
						return
					}
					// Everything queued by now must run before the two
					// children, and they must run in the order posted.
					var before [producers]int64
					for q := range before {
						before[q] = posted[q].Load()
					}
					returned := false
					children++
					first := children
					rt.Exec(0, func() {
						if !returned {
							fail("Exec ran fn before returning")
						}
						for q, n := range before {
							if ran[q] < n {
								fail("a self-posted task overtook a task queued before it")
							}
						}
						if lastChild != first-1 {
							fail("self-posted tasks ran out of post order")
						}
						lastChild = first
					})
					children++
					rt.Defer(func() {
						if lastChild != first {
							fail("self-posted tasks ran out of post order")
						}
						lastChild = first + 1
					})
					returned = true
				})
				posted[p].Add(1)
			}
		}(p)
	}
	wg.Wait()
	runReturns(t, bed, "Run after the producers finished")
	for p, n := range ran {
		if n != perProducer {
			t.Errorf("producer %d: %d of %d tasks ran before Run returned", p, n, perProducer)
		}
	}
	if lastChild != children {
		t.Errorf("last self-posted task to run was %d of %d", lastChild, children)
	}
	for _, s := range bad {
		t.Error(s)
	}
}

// TestRunWaitsForSpawnedWork pins quiescence: Run() returns only after the
// work that work spawned has run — host task → target task → chan capsule →
// handler on a second target → task back on the host — and returns promptly
// once the last token goes.
func TestRunWaitsForSpawnedWork(t *testing.T) {
	bed := NewBed(1, 2)
	defer bed.Close()
	tr := NewChanTransport(bed, 2)
	host, n0, n1 := backend.HostID, backend.NodeID(0), backend.NodeID(1)
	var ran atomic.Int64
	tr.Register(n1, func(m backend.Message) {
		ran.Add(1)
		time.Sleep(time.Millisecond) // Run has every chance to return early
		bed.NodeRuntime(host).Exec(0, func() { ran.Add(1) })
	})
	for i := int64(1); i <= 50; i++ {
		bed.Defer(func() {
			ran.Add(1)
			bed.NodeRuntime(n0).Defer(func() {
				ran.Add(1)
				tr.Send(n0, n1, testCmd(uint64(i)), parity.Sized(8))
			})
		})
		runReturns(t, bed, "Run over three generations of tasks")
		if got := ran.Load(); got != 4*i {
			t.Fatalf("round %d: Run returned with %d of %d tasks run", i, got, 4*i)
		}
	}

	// A held token keeps Run waiting; returning it lets Run go.
	bed.hold()
	done := make(chan struct{})
	go func() { bed.Run(); close(done) }()
	select {
	case <-done:
		t.Fatal("Run returned while a foreground token was held")
	case <-time.After(20 * time.Millisecond):
	}
	bed.release(1)
	within(t, done, "Run after the last token was returned")
}

// TestCallRunsOnTheHostLoop: Call queues fn behind what the host loop is
// doing and returns only after it ran; on a closed bed it runs fn inline.
func TestCallRunsOnTheHostLoop(t *testing.T) {
	bed := NewBed(1, 1)
	gate := make(chan struct{})
	bed.Defer(func() { <-gate })
	var ran atomic.Bool
	done := make(chan struct{})
	go func() { bed.Call(func() { ran.Store(true) }); close(done) }()
	select {
	case <-done:
		t.Fatal("Call returned while the host loop was busy: fn did not run on it")
	case <-time.After(20 * time.Millisecond):
	}
	if ran.Load() {
		t.Fatal("Call ran fn while the host loop was busy")
	}
	close(gate)
	within(t, done, "Call after the host loop was freed")
	if !ran.Load() {
		t.Fatal("Call returned before fn ran")
	}
	runReturns(t, bed, "Run after Call")

	bed.Close()
	ran.Store(false)
	bed.Call(func() { ran.Store(true) })
	if !ran.Load() {
		t.Fatal("Call on a closed bed must run fn inline")
	}
	tokensReturn(t, bed)
}

// TestCloseDrainsThenDrops: tasks and deliveries queued before Close still
// run; anything posted after it is dropped — its token returned, a dropped
// delivery's pooled payload released.
func TestCloseDrainsThenDrops(t *testing.T) {
	bed := NewBed(1, 1)
	tr := NewChanTransport(bed, 1)
	host, n0 := backend.HostID, backend.NodeID(0)
	rt := bed.NodeRuntime(n0)
	pool := parity.NewPool()
	var delivered, queued, late atomic.Int64
	tr.Register(n0, func(m backend.Message) { delivered.Add(1); m.Payload.Release() })

	gate := make(chan struct{})
	rt.Defer(func() { <-gate })
	for i := 0; i < 10; i++ {
		rt.Defer(func() { queued.Add(1) })
	}
	tr.Send(host, n0, testCmd(1), pool.Get(8))
	drained := make(chan struct{})
	rt.Defer(func() { close(drained) })

	bed.Close()
	rt.Defer(func() { late.Add(1) })
	rt.Exec(0, func() { late.Add(1) })
	rt.After(0, func() { late.Add(1) })
	tr.Send(host, n0, testCmd(2), pool.Get(8))
	if st := pool.Stats(); st.Outstanding() != 1 {
		t.Fatalf("a delivery dropped by a closed loop kept its payload: %+v", st)
	}
	runReturns(t, bed, "Run on a closed bed")

	close(gate)
	within(t, drained, "tasks queued before Close")
	tokensReturn(t, bed)
	if queued.Load() != 10 || delivered.Load() != 1 {
		t.Fatalf("queued before Close: %d of 10 tasks and %d of 1 deliveries ran", queued.Load(), delivered.Load())
	}
	if late.Load() != 0 {
		t.Fatalf("%d tasks posted after Close ran", late.Load())
	}
	if st := pool.Stats(); st.Outstanding() != 0 {
		t.Fatalf("pool unbalanced after the drain: %+v", st)
	}
}

// TestTimers pins the Stop-vs-fire contract and which timers hold Run().
func TestTimers(t *testing.T) {
	bed := NewBed(1, 1)
	defer bed.Close()
	rt := bed.NodeRuntime(0)

	// Stopped before it fires: true, the token comes back, fn never runs.
	var fired atomic.Int64
	tm := rt.After(time.Hour.Nanoseconds(), func() { fired.Add(1) })
	if !tm.Stop() {
		t.Fatal("Stop before fire reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	runReturns(t, bed, "Run after a foreground timer was stopped")

	// Fired, then stopped: false.
	ran := make(chan struct{})
	tm = rt.After(0, func() { close(ran) })
	within(t, ran, "a zero-delay timer")
	if tm.Stop() {
		t.Fatal("Stop after fire reported true")
	}

	// A foreground timer holds Run until its callback has run.
	rt.After((30 * time.Millisecond).Nanoseconds(), func() { fired.Add(1) })
	runReturns(t, bed, "Run over an armed foreground timer")
	if fired.Load() != 1 {
		t.Fatal("Run returned before the foreground timer's callback ran")
	}

	// A background timer does not.
	bg := rt.AfterBG(time.Hour.Nanoseconds(), func() { fired.Add(1) })
	runReturns(t, bed, "Run with only a background timer armed")
	if !bg.Stop() {
		t.Fatal("the background timer fired an hour early")
	}
	if fired.Load() != 1 {
		t.Fatalf("stopped timers ran: %d callbacks", fired.Load())
	}
}

// TestRearmableTimer pins the Rearmable contract on wall clocks: once Arm or
// Stop returns, no earlier arming's callback runs — not one whose fire is
// already queued on the loop behind the caller, and not one the time package
// fires just as the timer is re-armed.
func TestRearmableTimer(t *testing.T) {
	bed := NewBed(1, 0)
	defer bed.Close()
	var runs []time.Time // touched on the host loop only
	tm := bed.NewTimer(func() { runs = append(runs, time.Now()) })
	lt := tm.(*loopTimer)
	queued := func() bool {
		lt.mu.Lock()
		defer lt.mu.Unlock()
		return !lt.armed
	}
	ranOnceSince := func(what string, due time.Time) {
		t.Helper()
		runReturns(t, bed, what)
		bed.Call(func() {
			if len(runs) != 1 || runs[0].Before(due) {
				t.Errorf("%s: callback ran %d times, want once, not before the arming was due", what, len(runs))
			}
			runs = runs[:0]
		})
	}

	// A fire queued behind this task, then Stop: it reports false, and the
	// callback does not run.
	bed.Call(func() {
		tm.Arm(sim.Millisecond)
		time.Sleep(20 * time.Millisecond)
		if !queued() {
			t.Error("the arming had not fired after 20 ms")
		}
		if tm.Stop() {
			t.Error("Stop reported true after the arming fired")
		}
	})
	runReturns(t, bed, "Run after a fired arming was stopped")
	bed.Call(func() {
		if len(runs) != 0 {
			t.Errorf("a stopped arming's queued fire ran its callback %d times", len(runs))
		}
	})

	// A fire queued behind this task, then a re-arm: the callback runs once,
	// when the new arming is due.
	var due time.Time
	bed.Call(func() {
		tm.Arm(sim.Millisecond)
		time.Sleep(20 * time.Millisecond)
		if !queued() {
			t.Error("the arming had not fired after 20 ms")
		}
		due = time.Now().Add(30 * time.Millisecond)
		tm.Arm((30 * time.Millisecond).Nanoseconds())
	})
	ranOnceSince("re-armed over a queued fire", due)

	// The time package's fire of an earlier arming lands just after a
	// re-arm (its goroutine had started, but not yet taken the lock): it
	// must not stand in for the new arming.
	bed.Call(func() {
		due = time.Now().Add(30 * time.Millisecond)
		tm.Arm((30 * time.Millisecond).Nanoseconds())
		lt.fire()
	})
	ranOnceSince("a late fire after a re-arm", due)

	// Re-armed again and again at delays the time package fires around.
	bed.Call(func() {
		for i := 0; i < 2000; i++ {
			tm.Arm(sim.Duration(i%50) * sim.Microsecond)
			for spin := time.Now(); time.Since(spin) < time.Duration(i%30)*time.Microsecond; {
			}
		}
		due = time.Now().Add(5 * time.Millisecond)
		tm.Arm(5 * sim.Millisecond)
	})
	ranOnceSince("re-armed 2000 times", due)
}

// TestDrainedSlotsRetainNothing: once a batch has run, the queue's buffers
// must not keep a task's closure or a delivered payload reachable — an idle
// loop would otherwise pin the last user buffers that went through it.
func TestDrainedSlotsRetainNothing(t *testing.T) {
	bed := NewBed(1, 1)
	defer bed.Close()
	tr := NewChanTransport(bed, 1)
	host, n0 := backend.HostID, backend.NodeID(0)
	tr.Register(n0, func(backend.Message) {})

	const each = 8
	freed := make(chan struct{}, 2*each) // one send per finalizer below
	type big [64 << 10]byte
	post := func() { // its own frame: nothing of it is live once it returns
		for i := 0; i < each; i++ {
			captured, payload := new(big), new(big)
			runtime.SetFinalizer(captured, func(*big) { freed <- struct{}{} })
			runtime.SetFinalizer(payload, func(*big) { freed <- struct{}{} })
			bed.NodeRuntime(n0).Defer(func() { captured[0]++ })
			tr.Send(host, n0, testCmd(uint64(i)), parity.FromBytes(payload[:]))
		}
	}
	post()
	bed.Run()
	for got := 0; got < 2*each; {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of %d buffers that went through the queue are still reachable", 2*each-got, 2*each)
		}
	}
}

// pingPong is a chan round-trip harness: a capsule host → target, the
// target's handler answers, the host's handler counts.
type pingPong struct {
	bed  *Bed
	tr   *ChanTransport
	cmd  nvmeof.Command
	back int
}

func newPingPong() *pingPong {
	p := &pingPong{bed: NewBed(1, 1), cmd: testCmd(1)}
	p.tr = NewChanTransport(p.bed, 1)
	p.tr.Register(backend.NodeID(0), func(m backend.Message) {
		p.tr.Send(backend.NodeID(0), backend.HostID, m.Cmd, m.Payload)
	})
	p.tr.Register(backend.HostID, func(backend.Message) { p.back++ })
	return p
}

func (p *pingPong) roundTrip() {
	p.tr.Send(backend.HostID, backend.NodeID(0), p.cmd, parity.Buffer{})
	p.bed.Run()
}

// TestMessagePathAllocatesNothing: in steady state, a task posting to its
// own loop and a capsule's round trip over the chan transport allocate no
// heap object — no closure per task, no boxed command, no regrown queue.
func TestMessagePathAllocatesNothing(t *testing.T) {
	bed := NewBed(1, 1)
	defer bed.Close()
	rt := bed.NodeRuntime(0)
	left := 0
	var step func()
	step = func() {
		if left--; left > 0 {
			rt.Defer(step)
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		left = 100
		rt.Exec(0, step)
		bed.Run()
	}); n != 0 {
		t.Errorf("100 self-posts allocate %.1f objects, want 0", n)
	}

	p := newPingPong()
	defer p.bed.Close()
	if n := testing.AllocsPerRun(200, p.roundTrip); n != 0 {
		t.Errorf("a chan round trip allocates %.1f objects, want 0", n)
	}
	if p.back != 201 { // AllocsPerRun's warm-up call included
		t.Errorf("%d of 201 round trips completed", p.back)
	}
}

func BenchmarkLoopPost(b *testing.B) {
	bed := NewBed(1, 1)
	defer bed.Close()
	rt := bed.NodeRuntime(0)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Defer(fn)
	}
	bed.Run()
}

func BenchmarkChanRoundTrip(b *testing.B) {
	p := newPingPong()
	defer p.bed.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.roundTrip()
	}
}
