package backend

import (
	"math/rand"

	"draid/internal/sim"
)

// EngineProvider is implemented by runners backed by the deterministic
// discrete-event engine. Simulation-only layers (CPU-cost pools, tracing,
// the experiment harness) unwrap it to reach the concrete engine; its
// absence is how code detects a non-deterministic backend.
type EngineProvider interface {
	SimEngine() *sim.Engine
}

// SimRunner adapts a *sim.Engine to the Runner interface by direct
// delegation. It adds no events and perturbs no ordering, so a run through
// the adapter is byte-identical to one against the bare engine.
//
// An adapter (rather than methods on Engine itself) is needed because
// Engine's After/AfterBG return the concrete sim.Timer value, which does not
// satisfy the interface's `Timer` return type.
func SimRunner(e *sim.Engine) Runner { return simRunner{e} }

type simRunner struct{ eng *sim.Engine }

func (r simRunner) SimEngine() *sim.Engine { return r.eng }

func (r simRunner) Now() sim.Time                           { return r.eng.Now() }
func (r simRunner) Defer(fn func())                         { r.eng.Defer(fn) }
func (r simRunner) After(d sim.Duration, fn func()) Timer   { return r.eng.After(d, fn) }
func (r simRunner) AfterBG(d sim.Duration, fn func()) Timer { return r.eng.AfterBG(d, fn) }
func (r simRunner) Rand() *rand.Rand                        { return r.eng.Rand() }
func (r simRunner) Run()                                    { r.eng.Run() }
func (r simRunner) RunFor(d sim.Duration)                   { r.eng.RunFor(d) }
func (r simRunner) RunUntil(t sim.Time)                     { r.eng.RunUntil(t) }

// NewTimer builds a Rearmable on the engine: each arming is one engine
// event, whose slot the engine recycles, and Stop is exact.
func (r simRunner) NewTimer(fn func()) Rearmable { return &simTimer{eng: r.eng, fn: fn} }

type simTimer struct {
	eng *sim.Engine
	fn  func()
	t   sim.Timer
}

func (t *simTimer) Arm(d sim.Duration) {
	t.t.Stop()
	t.t = t.eng.After(d, t.fn)
}

func (t *simTimer) Stop() bool { return t.t.Stop() }

// Call runs fn inline: the caller of a single-goroutine simulation is
// already its execution domain.
func (r simRunner) Call(fn func()) { fn() }
