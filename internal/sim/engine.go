// Package sim provides the deterministic discrete-event engine that all
// simulated substrates (network, drives, CPUs) and controllers run on.
//
// A single goroutine executes events in virtual-time order. Events scheduled
// for the same instant run in scheduling order (FIFO), which makes every run
// fully deterministic for a given seed.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is distinct from
// time.Duration only to keep virtual and wall-clock time from mixing by
// accident; use the helper constructors below.
type Duration = int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds converts a virtual duration to floating-point seconds.
func Seconds(d Duration) float64 { return float64(d) / float64(Second) }

// String renders a Time using time.Duration formatting.
func (t Time) String() string { return time.Duration(t).String() }

// entry is one queued event as the heap holds it: the (at, seq) key it fires
// in and the slot that holds its callback. Entries are values, so queueing an
// event allocates nothing once the heap and the slot table have grown.
type entry struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among same-time events
	slot uint32
}

func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// slot holds a queued event's callback. A slot goes back on the free list
// when its event fires or its cancelled entry is reaped; gen counts those
// reuses, so a Timer naming an earlier use cancels nothing.
type slot struct {
	fn   func()
	gen  uint64
	bg   bool // background: does not keep Run from returning
	dead bool // cancelled; its entry is reaped when it reaches the heap top
}

// Engine is a discrete-event simulation engine. The zero value is not ready
// for use; call NewEngine.
type Engine struct {
	now Time
	// queue is a 4-ary min-heap on (at, seq) over indexes into slots; free
	// lists the slots no queued entry names.
	queue   []entry
	slots   []slot
	free    []uint32
	seq     uint64
	rng     *rand.Rand
	stopped bool
	// processed counts executed events, exposed for tests and debugging.
	processed uint64
	// live counts scheduled events that are neither fired nor cancelled —
	// unlike len(queue), it ignores dead entries awaiting heap reaping.
	live int
	// liveFG counts live foreground events only. Run returns when it reaches
	// zero; pending background events (periodic health probes, maintenance
	// tickers) stay queued for the next Run/RunFor.
	liveFG int
	obs    Observer
}

// Observer receives run-loop lifecycle notifications. It exists for
// instrumentation (the tracing subsystem's gauge ticker and per-run spans);
// a nil observer costs one pointer test per Run.
type Observer interface {
	// RunStart fires when Run/RunUntil begins executing events.
	RunStart(now Time)
	// RunEnd fires when the run loop returns, with the cumulative processed
	// event count.
	RunEnd(now Time, processed uint64)
}

// SetObserver installs the run-loop observer (nil to remove).
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Timer is a handle to a scheduled event that can be cancelled. It is a
// value: the event's slot and the generation the slot had when the event was
// scheduled. The zero Timer names no event.
type Timer struct {
	eng  *Engine
	slot uint32
	gen  uint64
}

// Stop cancels the timer. It reports whether the event had not yet fired.
// Stopping an already-fired or already-stopped timer is a no-op, and so is
// stopping a handle whose slot has since been reused by another event.
func (t Timer) Stop() bool {
	if t.eng == nil {
		return false
	}
	s := &t.eng.slots[t.slot]
	if s.gen != t.gen || s.dead {
		return false
	}
	s.dead = true
	s.fn = nil
	t.eng.live--
	if !s.bg {
		t.eng.liveFG--
	}
	return true
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: it always indicates a logic error in a causal simulation.
func (e *Engine) At(at Time, fn func()) Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	return e.schedule(at, fn, false)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.schedule(e.now+Time(d), fn, false)
}

// AfterBG schedules fn as a background event d nanoseconds from now: it runs
// like any other event while foreground work remains, but does not by itself
// keep Run from returning. Periodic maintenance (heartbeat probing, repair
// tickers) uses it so an otherwise-idle simulation still quiesces; drive
// background work forward with RunFor/RunUntil.
func (e *Engine) AfterBG(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.schedule(e.now+Time(d), fn, true)
}

// Defer schedules fn to run at the current time, after all events already
// queued for this instant. It is the simulation analogue of "post to the
// event loop" and is the usual way to break call-stack recursion between
// components.
func (e *Engine) Defer(fn func()) Timer { return e.schedule(e.now, fn, false) }

func (e *Engine) schedule(at Time, fn func(), bg bool) Timer {
	var i uint32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = uint32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	s := &e.slots[i]
	s.fn, s.bg, s.dead = fn, bg, false
	e.push(entry{at: at, seq: e.seq, slot: i})
	e.seq++
	e.live++
	if !bg {
		e.liveFG++
	}
	return Timer{eng: e, slot: i, gen: s.gen}
}

// release returns slot i to the free list; handles to its last use go stale.
func (e *Engine) release(i uint32) {
	s := &e.slots[i]
	s.fn = nil
	s.gen++
	e.free = append(e.free, i)
}

// push adds x to the heap, sifting it up from the last leaf.
func (e *Engine) push(x entry) {
	q := append(e.queue, x)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
	e.queue = q
}

// pop removes and returns the heap's minimum, sifting the last leaf down
// from the root into its place.
func (e *Engine) pop() entry {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for j := c + 1; j < c+4 && j < n; j++ {
				if q[j].before(q[m]) {
					m = j
				}
			}
			if !q[m].before(x) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = x
	}
	e.queue = q
	return top
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until no live foreground events remain or Stop is
// called. Background events (AfterBG) interleave normally while foreground
// work exists but never extend the run on their own. It returns the virtual
// time of the last executed event.
func (e *Engine) Run() Time {
	e.stopped = false
	if e.obs != nil {
		e.obs.RunStart(e.now)
	}
	for e.liveFG > 0 && !e.stopped {
		e.step()
	}
	if e.obs != nil {
		e.obs.RunEnd(e.now, e.processed)
	}
	return e.now
}

// RunUntil executes events with time ≤ deadline. The clock is left at
// min(deadline, time of last event) if the queue drains early, or exactly
// deadline otherwise.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	if e.obs != nil {
		e.obs.RunStart(e.now)
	}
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > deadline {
			e.now = deadline
			break
		}
		e.step()
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
	if e.obs != nil {
		e.obs.RunEnd(e.now, e.processed)
	}
}

// RunFor advances the clock by d, executing all events in the window.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now + Time(d)) }

// Call executes fn inside the engine's execution domain. A single-goroutine
// simulation's domain is simply the caller, so fn runs inline; the method
// exists so code written against the backend Runner interface (where Call
// marshals onto an event loop) works unchanged on the simulation.
func (e *Engine) Call(fn func()) { fn() }

func (e *Engine) step() {
	top := e.pop()
	s := &e.slots[top.slot]
	if s.dead {
		e.release(top.slot)
		return
	}
	fn, bg := s.fn, s.bg
	e.release(top.slot) // before fn runs: fn may schedule into this slot
	e.live--
	if !bg {
		e.liveFG--
	}
	e.now = top.at
	e.processed++
	fn()
}

// Pending reports the number of events in the queue, including cancelled
// events not yet reaped.
func (e *Engine) Pending() int { return len(e.queue) }

// Live reports the number of scheduled events that are neither fired nor
// cancelled, background included.
func (e *Engine) Live() int { return e.live }

// LiveFG reports live foreground events only. The tracing ticker re-arms on
// this rather than Live so that perpetual background tickers (heartbeat
// probes, periodic scrub) cannot keep the sampler — itself foreground —
// re-arming forever and prevent Run from returning.
func (e *Engine) LiveFG() int { return e.liveFG }
