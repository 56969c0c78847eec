package experiments

import (
	"testing"

	"draid/internal/ycsb"
)

// TestApplicationShapes checks the §9.6 qualitative results: dRAID beats the
// host-centric baseline on write-heavy mixes, roughly ties on read-heavy
// mixes in normal state, and widens its lead in degraded state.
func TestApplicationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("application runs load real datasets")
	}
	o := Options{Ramp: 20e6, Measure: 60e6}

	ratio := func(store AppStore, wl ycsb.Workload, failed []int) float64 {
		run := func(sys System) AppResult {
			r, err := YCSB(store, sys, wl, failed, o)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		s := run(SPDK)
		d := run(DRAID)
		t.Logf("%s: SPDK=%.1f KIOPS dRAID=%.1f KIOPS (%.2fx)", d.Workload, s.KIOPS, d.KIOPS, d.KIOPS/s.KIOPS)
		return d.KIOPS / s.KIOPS
	}

	// Object store, normal state: A (write-heavy) gains; C (read-only) ties.
	objA := ratio(ObjectStore, ycsb.WorkloadA, nil)
	objC := ratio(ObjectStore, ycsb.WorkloadC, nil)
	if objA < 1.10 {
		t.Errorf("object store YCSB-A gain = %.2fx, want > 1.1x (paper 1.7x)", objA)
	}
	if objC < 0.95 || objC > 1.1 {
		t.Errorf("object store YCSB-C gain = %.2fx, want ~1x (read-only)", objC)
	}

	// Object store, degraded: read-heavy B now gains too.
	objBdeg := ratio(ObjectStore, ycsb.WorkloadB, []int{0})
	if objBdeg < 1.2 {
		t.Errorf("degraded object store YCSB-B gain = %.2fx, want > 1.2x (paper ~2.35x)", objBdeg)
	}

	// KV store: read-heavy C roughly ties (CPU/cache-bound, like RocksDB);
	// write-heavy A must not regress; degraded A widens.
	kvC := ratio(KVStore, ycsb.WorkloadC, nil)
	kvA := ratio(KVStore, ycsb.WorkloadA, nil)
	kvAdeg := ratio(KVStore, ycsb.WorkloadA, []int{0})
	if kvC < 0.95 || kvC > 1.4 {
		t.Errorf("KV YCSB-C gain = %.2fx, want near 1x", kvC)
	}
	if kvA < 1.0 {
		t.Errorf("KV YCSB-A gain = %.2fx, dRAID must not lose on write-heavy", kvA)
	}
	if kvAdeg < kvA {
		t.Errorf("degraded KV YCSB-A gain (%.2fx) should exceed normal state (%.2fx)", kvAdeg, kvA)
	}
}

func TestAppFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("application figures load real datasets")
	}
	for _, id := range IDs() {
		if appIDs[id] {
			t.Run(id, func(t *testing.T) { checkQuickReport(t, id) })
		}
	}
}

func TestRegistryRunsEveryID(t *testing.T) {
	ids := IDs()
	if len(ids) < 30 {
		t.Fatalf("only %d experiment ids registered", len(ids))
	}
	if ids[0] != "table1" {
		t.Fatal("table1 missing from IDs")
	}
	if _, err := Run("nonsense", Options{}); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := RunFigure("table1", Options{}); err == nil {
		t.Fatal("RunFigure should reject table1")
	}
	// One representative full Run through the string path.
	out, err := Run("ablation-barrier", Options{Quick: true, Ramp: 5e6, Measure: 15e6})
	if err != nil || out == "" {
		t.Fatalf("Run failed: %v", err)
	}
}

// TestPaperClaims runs the machine-checkable paper expectations with
// shortened windows. cmd/draid-report runs the same checks at full windows.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates many figures")
	}
	o := Options{Ramp: 15e6, Measure: 50e6}
	figs := map[string]Figure{}
	for _, e := range Expectations() {
		fig, ok := figs[e.FigureID]
		if !ok {
			var err error
			fig, err = RunFigure(e.FigureID, o)
			if err != nil {
				t.Fatal(err)
			}
			figs[e.FigureID] = fig
		}
		if err := e.Check(fig); err != nil {
			t.Errorf("%s: %s: %v", e.FigureID, e.Claim, err)
		}
	}
}

// TestDeterminism: identical seeds produce bit-identical experiment results
// end to end — the property that makes every figure in EXPERIMENTS.md
// reproducible on any machine.
func TestDeterminism(t *testing.T) {
	run := func() Figure {
		fig, err := RunFigure("fig10", Options{Quick: true, Ramp: 10e6, Measure: 30e6, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}
	a, b := run(), run()
	for i := range a.Series {
		for j := range a.Series[i].Points {
			pa, pb := a.Series[i].Points[j], b.Series[i].Points[j]
			if pa.BW != pb.BW || pa.Lat != pb.Lat {
				t.Fatalf("non-deterministic: %s/%s %v vs %v",
					a.Series[i].System, pa.Label, pa, pb)
			}
		}
	}
}
