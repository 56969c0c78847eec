package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"draid"
)

// simShape reads the series names and row labels of an ID's simulated quick
// report from its capture under testdata/.
func simShape(t *testing.T, id string) (series, rows []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", id+"_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	for _, col := range strings.Split(lines[1], " | ")[1:] {
		series = append(series, strings.TrimSpace(col[:strings.Index(col, " MB/s")]))
	}
	for _, l := range lines[2:] {
		if label, _, ok := strings.Cut(l, " | "); ok {
			rows = append(rows, strings.TrimSpace(label))
		}
	}
	return series, rows
}

// stalled reports whether some point of fig measured no completed I/O.
func stalled(fig Figure) bool {
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.BW <= 0 {
				return true
			}
		}
	}
	return false
}

// checkOnRealtime runs one ID on the realtime backend and asserts the shape
// of what comes back: the simulated report's series minus the baselines, its
// row labels, and a positive bandwidth everywhere. A point whose I/Os failed
// or whose cluster leaked at quiescence fails the run itself (measure).
func checkOnRealtime(t *testing.T, id string, o Options) Figure {
	t.Helper()
	fig, err := RunFigure(id, o)
	if err == nil && stalled(fig) {
		// A loaded or race-instrumented machine may finish no op of a deep
		// queue inside a 15 ms window: widen it once before calling that a
		// failure.
		o.Ramp, o.Measure = 20*o.Ramp, 20*o.Measure
		fig, err = RunFigure(id, o)
	}
	if err != nil {
		t.Fatal(err)
	}
	simSeries, rows := simShape(t, id)
	var want []string
	for _, s := range simSeries {
		if s != string(Linux) && s != string(SPDK) {
			want = append(want, s)
		}
	}
	var got []string
	for _, s := range fig.Series {
		got = append(got, s.System)
		var labels []string
		for _, p := range s.Points {
			labels = append(labels, p.Label)
			if p.BW <= 0 {
				t.Errorf("%s/%s: nonpositive bandwidth at %s", id, s.System, p.Label)
			}
		}
		if !reflect.DeepEqual(labels, rows) {
			t.Errorf("%s/%s: rows %v, the sim run has %v", id, s.System, labels, rows)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: series %v, want %v (the sim run's, less the baselines)", id, got, want)
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
	for _, id := range []string{"fig09", "fig15", "writeback"} {
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
