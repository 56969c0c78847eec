// Package realtime is the wall-clock backend: the same dRAID protocol code
// that runs on the deterministic simulation, executed by real goroutines
// against real timers, in-process channel or TCP-loopback transports, and
// memory- or file-backed media.
//
// Concurrency model: one event loop (goroutine) per node — the host plus
// each storage target. All of a controller's callbacks run on its node's
// loop, preserving the single-threaded discipline the protocol code was
// written under; cross-node interaction happens only through the transport,
// which posts deliveries onto the destination loop.
//
// Run queue: a loop's queue holds task records, not closures — a plain fn
// (Defer, Exec, a fired timer) or a capsule delivery (destination, message,
// wire size) — so queueing a task and delivering a capsule allocate nothing.
// The loop goroutine takes the whole pending batch under the loop's mutex,
// runs it unlocked, zeroes each slot as it goes (a drained slot must not pin
// a payload or a user's read buffer) and keeps the emptied buffer as the
// next spare; producers wake it only when they make an empty queue
// non-empty. What protocol code may rely on is strict FIFO per loop: tasks
// run in the order they were posted to that loop, whoever posted them, and a
// task posted while a batch runs (a self-post included) runs in the next
// batch, after everything queued before it. Exec and Defer therefore never
// run fn before they return — callers finish their own bookkeeping first, as
// on the simulation, which is why Exec is queued and not run inline.
//
// Quiescence: Run() must block exactly while protocol work is outstanding,
// like the simulation's foreground event count. A shared foreground-token
// counter implements this: every posted loop task, in-flight drive
// operation, undelivered transport message, and armed foreground timer holds
// one token from creation until its work completes. The counter is atomic;
// a loop returns the tokens of a batch in one step after the batch, and only
// the step that brings the count to zero takes the lock Run() sleeps under.
// An operation on a failed drive takes no token (it will never complete —
// its op deadline, itself a foreground timer, is what keeps Run waiting).
// Background timers take none.
//
// Unlike the simulation, nothing here is deterministic: goroutine
// interleaving, wall-clock jitter, and TCP scheduling vary run to run. Only
// application-visible semantics are preserved — the conformance suite in
// backend/conformancetest is the contract.
package realtime

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"draid/internal/backend"
	"draid/internal/sim"
)

// task is one queued unit of loop work: a plain fn, or — when ep is set — the
// delivery of msg to endpoint 'to' of that transport. fg marks a task that
// carries a foreground token, which the loop returns after the task's batch.
type task struct {
	fn   func()
	ep   *endpoints
	to   backend.NodeID
	wire int64
	msg  backend.Message
	fg   bool
}

// loop is one node's event loop: a goroutine draining a FIFO queue of task
// records in batches.
type loop struct {
	bed    *Bed
	mu     sync.Mutex
	cond   *sync.Cond
	q      []task // pending, in post order
	closed bool
}

func newLoop(b *Bed) *loop {
	l := &loop{bed: b}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	return l
}

func (l *loop) run() {
	var batch []task // the buffer drained last turn, empty: next turn's l.q
	for {
		l.mu.Lock()
		for len(l.q) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.q) == 0 {
			l.mu.Unlock()
			return
		}
		batch, l.q = l.q, batch[:0]
		l.mu.Unlock()
		fg := 0
		for i := range batch {
			t := &batch[i]
			if t.ep != nil {
				t.ep.deliver(t.to, t.msg, t.wire)
			} else {
				t.fn()
			}
			if t.fg {
				fg++
			}
			*t = task{}
		}
		l.bed.release(fg)
	}
}

// push enqueues t, reporting false when the loop is closed. Only the push
// that makes the queue non-empty signals: the loop sleeps on nothing else.
func (l *loop) push(t task) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	l.q = append(l.q, t)
	if len(l.q) == 1 {
		l.cond.Signal()
	}
	l.mu.Unlock()
	return true
}

func (l *loop) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Bed is an assembled real-time testbed: the host loop plus one loop per
// storage target, sharing a foreground-token counter. Bed itself is the
// host's backend.Runner (and Executor); NodeRuntime returns the per-target
// runtimes.
type Bed struct {
	start time.Time

	fg atomic.Int64 // foreground tokens outstanding

	mu     sync.Mutex // guards closed; Run sleeps on cond under it
	cond   *sync.Cond
	closed bool

	host  *NodeRuntime
	nodes []*NodeRuntime
}

// NewBed creates the loops for a host plus n targets. Each node gets its own
// seeded random source (used only from its loop).
func NewBed(seed int64, n int) *Bed {
	if seed == 0 {
		seed = 1
	}
	b := &Bed{start: time.Now()}
	b.cond = sync.NewCond(&b.mu)
	b.host = &NodeRuntime{bed: b, loop: newLoop(b), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < n; i++ {
		b.nodes = append(b.nodes, &NodeRuntime{
			bed: b, loop: newLoop(b), rng: rand.New(rand.NewSource(seed + int64(i) + 1)),
		})
	}
	return b
}

// NodeRuntime returns the runtime of one endpoint (backend.HostID or a
// target index). It implements backend.Runtime and backend.Executor.
func (b *Bed) NodeRuntime(id backend.NodeID) *NodeRuntime {
	if id == backend.HostID {
		return b.host
	}
	return b.nodes[id]
}

func (b *Bed) loopFor(id backend.NodeID) *loop { return b.NodeRuntime(id).loop }

// hold takes a foreground token.
func (b *Bed) hold() { b.fg.Add(1) }

// release returns n tokens. Only the return that empties the counter takes
// mu, and it broadcasts under it: Run checks the counter under the same lock
// before it sleeps, so it cannot miss the wake-up.
func (b *Bed) release(n int) {
	if n > 0 && b.fg.Add(-int64(n)) == 0 {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// post queues t on l. A foreground record travels with a token its poster
// already holds; on a closed loop the record is dropped here — the token
// returned, a delivery's payload released.
func (b *Bed) post(l *loop, t task) {
	if l.push(t) {
		return
	}
	if t.fg {
		b.release(1)
	}
	t.msg.Payload.Release()
}

// postFG posts fn to l as foreground work: a token is held until the batch
// that ran the task finishes (or the task is dropped because the loop closed).
func (b *Bed) postFG(l *loop, fn func()) {
	b.hold()
	b.post(l, task{fn: fn, fg: true})
}

// loopTimer is a wall-clock timer whose callback runs on its node's loop,
// armed once (After, AfterBG) or again and again (NewTimer): one time.Timer
// and one record however often. A foreground arming holds a token until it
// fires or is stopped. gen numbers the armings and Stops; a fire posts run
// with the generation it fired at, and run calls fn only if no Arm or Stop
// came after, so a fire that lost its race with either does nothing.
type loopTimer struct {
	bed   *Bed
	loop  *loop
	fn    func()
	runFn func()
	fg    bool
	t     *time.Timer

	mu         sync.Mutex
	armed      bool      // neither fired nor stopped
	due        time.Time // when the current arming is due
	gen, fired uint64
}

func (b *Bed) newTimer(l *loop, fn func(), fg bool) *loopTimer {
	lt := &loopTimer{bed: b, loop: l, fn: fn, fg: fg}
	lt.runFn = lt.run
	return lt
}

func (lt *loopTimer) Arm(d sim.Duration) {
	dur := time.Duration(max(d, 0))
	lt.mu.Lock()
	if !lt.armed && lt.fg {
		lt.bed.hold()
	}
	lt.armed = true
	lt.gen++
	lt.due = time.Now().Add(dur)
	lt.mu.Unlock()
	if lt.t == nil {
		lt.t = time.AfterFunc(dur, lt.fire)
		return
	}
	lt.t.Reset(dur)
}

// fire runs on the time package's goroutine. An earlier arming's fire that
// comes before the current one is due does nothing: the timer is set again.
func (lt *loopTimer) fire() {
	lt.mu.Lock()
	if !lt.armed || time.Now().Before(lt.due) {
		lt.mu.Unlock()
		return
	}
	lt.armed, lt.fired = false, lt.gen
	lt.mu.Unlock()
	lt.bed.post(lt.loop, task{fn: lt.runFn, fg: lt.fg}) // the arming's token travels with it
}

func (lt *loopTimer) run() {
	lt.mu.Lock()
	current := lt.fired == lt.gen
	lt.mu.Unlock()
	if current {
		lt.fn()
	}
}

// Stop cancels the arming and reports whether it had not yet fired; once it
// returns, fn does not run for it either way.
func (lt *loopTimer) Stop() bool {
	lt.mu.Lock()
	lt.gen++
	armed := lt.armed
	lt.armed = false
	lt.mu.Unlock()
	if armed {
		lt.t.Stop()
		if lt.fg {
			lt.bed.release(1)
		}
	}
	return armed
}

// NodeRuntime is one node's backend.Runtime: scheduling lands on the node's
// loop. Its Exec executes CPU work immediately in submission order (real
// cores cost real time), which also makes it the node's backend.Executor.
type NodeRuntime struct {
	bed  *Bed
	loop *loop
	rng  *rand.Rand
}

func (n *NodeRuntime) Now() sim.Time    { return sim.Time(time.Since(n.bed.start)) }
func (n *NodeRuntime) Defer(fn func())  { n.bed.postFG(n.loop, fn) }
func (n *NodeRuntime) Rand() *rand.Rand { return n.rng }

func (n *NodeRuntime) After(d sim.Duration, fn func()) backend.Timer {
	t := n.bed.newTimer(n.loop, fn, true)
	t.Arm(d)
	return t
}

func (n *NodeRuntime) AfterBG(d sim.Duration, fn func()) backend.Timer {
	t := n.bed.newTimer(n.loop, fn, false)
	t.Arm(d)
	return t
}

// NewTimer returns a foreground backend.Rearmable running fn on the node's
// loop.
func (n *NodeRuntime) NewTimer(fn func()) backend.Rearmable { return n.bed.newTimer(n.loop, fn, true) }

func (n *NodeRuntime) Exec(d sim.Duration, fn func()) { n.bed.postFG(n.loop, fn) }

// ---------------------------------------------------------------------------
// Bed as the host's Runner.

func (b *Bed) Now() sim.Time    { return b.host.Now() }
func (b *Bed) Defer(fn func())  { b.host.Defer(fn) }
func (b *Bed) Rand() *rand.Rand { return b.host.rng }

func (b *Bed) After(d sim.Duration, fn func()) backend.Timer   { return b.host.After(d, fn) }
func (b *Bed) AfterBG(d sim.Duration, fn func()) backend.Timer { return b.host.AfterBG(d, fn) }
func (b *Bed) Exec(d sim.Duration, fn func())                  { b.host.Exec(d, fn) }
func (b *Bed) NewTimer(fn func()) backend.Rearmable            { return b.host.NewTimer(fn) }

// Run blocks until no foreground work remains (or the bed is closed).
func (b *Bed) Run() {
	b.mu.Lock()
	for b.fg.Load() > 0 && !b.closed {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// RunFor sleeps for d of wall time.
func (b *Bed) RunFor(d sim.Duration) {
	if d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// RunUntil sleeps until instant t on the bed's clock.
func (b *Bed) RunUntil(t sim.Time) {
	if d := time.Until(b.start.Add(time.Duration(t))); d > 0 {
		time.Sleep(d)
	}
}

// Call marshals fn onto the host loop and waits for it to return — the safe
// way for an outside goroutine to touch host-confined state. It must not be
// called from a loop task (it would deadlock waiting on itself). On a closed
// bed fn runs inline: the loops are gone, so nothing races.
func (b *Bed) Call(fn func()) {
	done := make(chan struct{})
	b.hold()
	if !b.host.loop.push(task{fn: func() { fn(); close(done) }, fg: true}) {
		b.release(1)
		fn()
		return
	}
	<-done
}

// Close stops every loop. Queued tasks drain; future posts are dropped (with
// their tokens released), and Run unblocks.
func (b *Bed) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
	b.host.loop.close()
	for _, n := range b.nodes {
		n.loop.close()
	}
	return nil
}

var (
	_ backend.Runner   = (*Bed)(nil)
	_ backend.Executor = (*Bed)(nil)
	_ backend.Runtime  = (*NodeRuntime)(nil)
	_ backend.Executor = (*NodeRuntime)(nil)
)
