package cpu

import (
	"testing"

	"draid/internal/sim"
)

func TestCoreSerializesWork(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCore(eng)
	var times []sim.Time
	c.Exec(100, func() { times = append(times, eng.Now()) })
	c.Exec(100, func() { times = append(times, eng.Now()) })
	eng.Run()
	if times[0] != 100 || times[1] != 200 {
		t.Fatalf("times = %v, want [100 200]", times)
	}
	if c.BusyTotal() != 200 {
		t.Fatalf("busy = %d, want 200", c.BusyTotal())
	}
}

func TestZeroWorkStillDefers(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCore(eng)
	ran := false
	c.Exec(0, func() { ran = true })
	if ran {
		t.Fatal("zero-cost work ran synchronously")
	}
	eng.Run()
	if !ran {
		t.Fatal("zero-cost work never ran")
	}
}

func TestNegativeWorkPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCore(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Exec(-1, func() {})
}

func TestCoreIdleGapNotCounted(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCore(eng)
	c.Exec(100, func() {})
	eng.Run()
	eng.At(1000, func() { c.Exec(50, func() {}) })
	eng.Run()
	if c.BusyTotal() != 150 {
		t.Fatalf("busy = %d, want 150", c.BusyTotal())
	}
}

func TestUtilization(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCore(eng)
	start := eng.Now()
	busy0 := c.BusyTotal()
	c.Exec(250, func() {})
	eng.Run()
	eng.RunUntil(1000)
	u := c.Utilization(busy0, start)
	if u < 0.24 || u > 0.26 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
}

func TestPoolPicksEarliestAvailable(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPool(eng, 2)
	var times []sim.Time
	for i := 0; i < 4; i++ {
		p.Exec(100, func() { times = append(times, eng.Now()) })
	}
	eng.Run()
	// Two cores run pairs in parallel: completions at 100,100,200,200.
	want := []sim.Time{100, 100, 200, 200}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
	if p.BusyTotal() != 400 {
		t.Fatalf("pool busy = %d, want 400", p.BusyTotal())
	}
	if len(p.Cores()) != 2 {
		t.Fatal("Cores() wrong length")
	}
}

func TestEmptyPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewPool(sim.NewEngine(1), 0)
}

func TestCosts(t *testing.T) {
	c := Costs{XorBps: 1e9, GfBps: 5e8}
	if c.Xor(1000) != 1000 {
		t.Fatalf("Xor(1000) = %d ns, want 1000", c.Xor(1000))
	}
	if c.Gf(1000) != 2000 {
		t.Fatalf("Gf(1000) = %d ns, want 2000", c.Gf(1000))
	}
}

func TestDefaultCostsParityIsCheap(t *testing.T) {
	c := DefaultCosts()
	// XOR of a 512 KB chunk should take ~13us on one core — far below the
	// time to move the same bytes over a 100 Gbps NIC (~46us), matching the
	// paper's claim that parity work fits in <25% of a core.
	xor := c.Xor(512 << 10)
	if xor <= 0 || xor > 50*sim.Microsecond {
		t.Fatalf("xor of 512KB = %v ns, implausible", xor)
	}
}

// TestEqualCostWorkFinishesInSubmissionOrder pins the invariant the
// controllers' message inboxes rely on: on a pool of 1–4 cores, work items of
// one cost complete in the order they were submitted, however work of other
// costs is interleaved with them — submitted at scattered instants, several
// at one instant, and from inside completions. A finish time is max(now,
// earliest core free) + d; neither term ever decreases, and equal finish
// times run in scheduling order.
func TestEqualCostWorkFinishesInSubmissionOrder(t *testing.T) {
	costs := []sim.Duration{0, 600, 700, 1500, 13 * sim.Microsecond}
	for seed := int64(1); seed <= 200; seed++ {
		eng := sim.NewEngine(seed)
		rng := eng.Rand()
		p := NewPool(eng, 1+rng.Intn(4))
		submitted := make([]int, len(costs)) // per cost: items submitted so far
		finished := make([]int, len(costs))  // per cost: items finished so far
		left := 400
		var submit func()
		submit = func() {
			if left == 0 {
				return
			}
			left--
			k := rng.Intn(len(costs))
			n := submitted[k]
			submitted[k]++
			p.Exec(costs[k], func() {
				if finished[k] != n {
					t.Fatalf("seed %d, %d cores: item %d of cost %d finished after %d others of its cost",
						seed, len(p.Cores()), n, costs[k], finished[k])
				}
				finished[k]++
				if rng.Intn(3) == 0 {
					submit() // a completion submitting more work
				}
			})
		}
		for left > 0 {
			switch rng.Intn(3) {
			case 0:
				submit()
			case 1:
				eng.After(sim.Duration(rng.Intn(2000)), submit)
			default:
				eng.RunFor(sim.Duration(rng.Intn(3000)))
			}
		}
		eng.Run()
		for k := range costs {
			if finished[k] != submitted[k] {
				t.Fatalf("seed %d: %d of %d items of cost %d finished", seed, finished[k], submitted[k], costs[k])
			}
		}
	}
}
