package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"draid"
)

// simShape reads the series names and row labels of an ID's simulated quick
// report from its capture under testdata/, plus the cells (series, row) whose
// bandwidth is zero there — points that measure nothing by design, like
// multivol-noisy's absent aggressor.
func simShape(t *testing.T, id string) (series, rows []string, idle map[[2]string]bool) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", id+"_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	for _, col := range strings.Split(lines[1], " | ")[1:] {
		series = append(series, strings.TrimSpace(col[:strings.Index(col, " MB/s")]))
	}
	idle = map[[2]string]bool{}
	for _, l := range lines[2:] {
		cols := strings.Split(l, " | ")
		if len(cols) < 2 {
			continue
		}
		label := strings.TrimSpace(cols[0])
		rows = append(rows, label)
		for i, col := range cols[1:] {
			if bw, err := strconv.ParseFloat(strings.Fields(col)[0], 64); err != nil {
				t.Fatalf("%s capture, row %s: %v", id, label, err)
			} else if bw == 0 {
				idle[[2]string{series[i], label}] = true
			}
		}
	}
	return series, rows, idle
}

// checkOnRealtime runs one ID on the realtime backend and asserts the shape
// of what comes back: the simulated report's series — the SPDK and Linux
// baselines included — its row labels, and a positive bandwidth everywhere
// the simulated run has one.
// A point whose I/Os failed or whose cluster leaked at quiescence fails the
// run itself (measure, YCSB, noisyPoint).
func checkOnRealtime(t *testing.T, id string, o Options) Figure {
	t.Helper()
	simSeries, rows, idle := simShape(t, id)
	// stalled lists the points of fig that measured no completed I/O.
	stalled := func(fig Figure) (at []string) {
		for _, s := range fig.Series {
			for _, p := range s.Points {
				if p.BW <= 0 && !idle[[2]string{s.System, p.Label}] {
					at = append(at, s.System+" at "+p.Label)
				}
			}
		}
		return at
	}
	fig, err := RunFigure(id, o)
	if err == nil && stalled(fig) != nil {
		// A loaded or race-instrumented machine may finish no op of a deep
		// queue inside a 15 ms window: widen it once before calling that a
		// failure.
		o.Ramp, o.Measure = 20*o.Ramp, 20*o.Measure
		fig, err = RunFigure(id, o)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range stalled(fig) {
		t.Errorf("%s: nonpositive bandwidth for %s", id, at)
	}
	var got []string
	for _, s := range fig.Series {
		got = append(got, s.System)
		var labels []string
		for _, p := range s.Points {
			labels = append(labels, p.Label)
		}
		if !reflect.DeepEqual(labels, rows) {
			t.Errorf("%s/%s: rows %v, the sim run has %v", id, s.System, labels, rows)
		}
	}
	if !reflect.DeepEqual(got, simSeries) {
		t.Errorf("%s: series %v, want the sim run's %v", id, got, simSeries)
	}
	return fig
}

// TestEveryIDOnRealtimeBackend is the realtime half of the one sweep table:
// every ID either runs on Backend: realtime with the shape of its simulated
// run, or says — before anything is built — that it needs the simulation.
func TestEveryIDOnRealtimeBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock sweeps")
	}
	rt := Options{Quick: true, Ramp: 5e6, Measure: 15e6, Backend: draid.BackendRealtime}
	// Exactly the IDs that read a simulated quantity: the single-machine
	// row's offloaded controller and co-located drives, a NIC rate or queue,
	// a shared simulated core, the simulated servers' barrier knob.
	var simOnly []string
	for _, id := range IDs() {
		if Supported(id, rt) != nil {
			simOnly = append(simOnly, id)
		}
	}
	want := []string{"table1", "ablation-barrier", "ablation-colocate", "ablation-reducer", "fig17b"}
	if !reflect.DeepEqual(simOnly, want) {
		t.Errorf("simulation-only IDs %v, want %v", simOnly, want)
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			if Supported(id, Options{}) != nil {
				t.Fatalf("%s does not run on the simulation", id)
			}
			if err := Supported(id, rt); err != nil {
				if _, err := Run(id, rt); !errors.Is(err, draid.ErrUnsupported) {
					t.Fatalf("sim-only %s on realtime: %v, want ErrUnsupported", id, err)
				}
				if _, err := RunAll([]string{"fig09", id}, rt); !errors.Is(err, draid.ErrUnsupported) {
					t.Fatalf("RunAll with sim-only %s on realtime: %v, want ErrUnsupported", id, err)
				}
				return
			}
			checkOnRealtime(t, id, rt)
		})
	}
	tcp := rt
	tcp.Realtime.TCP = true
	for _, id := range []string{"fig09", "fig10", "fig15", "fig16", "writeback", "fig20"} {
		t.Run("tcp/"+id, func(t *testing.T) { checkOnRealtime(t, id, tcp) })
	}
}

// TestWritebackAgreesAcrossBackends checks the writeback expectations —
// unstaged ≥ 2x, staged ≤ 1.3x, full stripes ~(k+1)/k either way: byte
// counts, not timings — against the realtime figure as TestPaperClaims does
// against the simulated one: the same claim about the same workload must hold
// on both substrates.
func TestWritebackAgreesAcrossBackends(t *testing.T) {
	fig, err := RunFigure("writeback", Options{Backend: draid.BackendRealtime})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Expectations() {
		if e.FigureID == "writeback" {
			if err := e.Check(fig); err != nil {
				t.Errorf("realtime: %s: %v", e.Claim, err)
			}
		}
	}
}
