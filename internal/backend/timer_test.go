package backend

import (
	"reflect"
	"testing"

	"draid/internal/sim"
)

// lossy is a simulation whose timers always lose the Stop race, as a
// realtime timer does when its fire was posted just before Stop: Stop
// reports false and the callback still runs at its time. It builds no
// Rearmable of its own, so NewTimer falls back to afterTimer.
type lossy struct{ Runner }

type lostRace struct{}

func (lostRace) Stop() bool { return false }

func (r lossy) After(d sim.Duration, fn func()) Timer {
	r.Runner.After(d, fn)
	return lostRace{}
}

// TestRearmable pins the Rearmable contract on the engine's own timer and on
// the After fallback: once Arm or Stop returns, no earlier arming's callback
// runs, and a callback may re-arm its own timer.
func TestRearmable(t *testing.T) {
	for _, tc := range []struct {
		name string
		rt   func(*sim.Engine) Runtime
		impl Rearmable
	}{
		{"engine", func(e *sim.Engine) Runtime { return SimRunner(e) }, &simTimer{}},
		{"after", func(e *sim.Engine) Runtime { return lossy{SimRunner(e)} }, &afterTimer{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			var runs []sim.Time
			again := false
			var tm Rearmable
			tm = NewTimer(tc.rt(eng), func() {
				runs = append(runs, eng.Now())
				if again {
					again = false
					tm.Arm(5)
				}
			})
			if reflect.TypeOf(tm) != reflect.TypeOf(tc.impl) {
				t.Fatalf("NewTimer built a %T, want a %T", tm, tc.impl)
			}
			// check runs the engine dry and compares the callbacks' times,
			// counted from the stage's start, with want.
			start := eng.Now()
			check := func(what string, want ...sim.Time) {
				t.Helper()
				eng.Run()
				for i := range runs {
					runs[i] -= start
				}
				if len(runs)+len(want) > 0 && !reflect.DeepEqual(runs, want) {
					t.Fatalf("%s: callbacks ran at %v, want %v", what, runs, want)
				}
				runs, start = runs[:0], eng.Now()
			}

			tm.Arm(10)
			tm.Arm(30) // replaces the arming due at 10
			check("re-armed later", 30)

			tm.Arm(10)
			if !tm.Stop() && tc.name == "engine" {
				t.Fatal("Stop before the fire reported false")
			}
			check("stopped")

			tm.Arm(10)
			eng.After(5, func() { tm.Arm(1) }) // re-armed earlier, from an event
			check("re-armed earlier", 6)

			tm.Arm(10)
			check("fired", 10)
			if tm.Stop() {
				t.Fatal("Stop after the fire reported true")
			}
			check("stopped after the fire")

			again = true
			tm.Arm(10)
			check("re-armed by its callback", 10, 15)
		})
	}
}
