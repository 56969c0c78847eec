package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func quickOpts() Options {
	return Options{Quick: true, Ramp: 10e6, Measure: 30e6} // 10ms/30ms windows
}

// update rewrites testdata/<id>_quick.txt from this tree instead of comparing.
var update = flag.Bool("update", false, "rewrite the quick-report captures under testdata/")

// appIDs are the §9.6 application figures. They load real datasets, so their
// captures are compared by TestAppFiguresQuick; TestAllFiguresRunQuick takes
// every other ID.
var appIDs = map[string]bool{"fig19a": true, "fig19b": true, "fig20": true, "fig21": true}

// checkQuickReport pins one experiment's quick report (quickOpts windows,
// seed 1) byte for byte against testdata/<id>_quick.txt. The captures were
// taken before the figure functions became rows of one sweep table, so any
// drift here is a change in what a figure measures, not in how it is built.
func checkQuickReport(t *testing.T, id string) {
	t.Helper()
	got, err := Run(id, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", id+"_quick.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s quick report drifted from its capture\n got:\n%s\nwant:\n%s", id, got, want)
	}
}

func TestAllFiguresRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke runs take a few seconds")
	}
	for _, id := range IDs() {
		if !appIDs[id] {
			t.Run(id, func(t *testing.T) { checkQuickReport(t, id) })
		}
	}
}

func TestTable1Overheads(t *testing.T) {
	rows := Table1(Options{})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	sm, dist, dr := rows[0], rows[1], rows[2]
	// Paper's Table 1: single-machine 1x/1x, distributed 1-4x write and Nx
	// degraded read, dRAID 1x/1x.
	if sm.WriteOverhead > 1.1 || sm.DReadOverhead > 1.1 {
		t.Errorf("single-machine overheads = %.2f/%.2f, want ~1x", sm.WriteOverhead, sm.DReadOverhead)
	}
	if dist.WriteOverhead < 1.8 {
		t.Errorf("distributed write overhead = %.2f, want ~2x", dist.WriteOverhead)
	}
	if dist.DReadOverhead < 3.0 {
		t.Errorf("distributed degraded-read overhead = %.2f, want ~(n-1)x", dist.DReadOverhead)
	}
	if dr.WriteOverhead > 1.1 || dr.DReadOverhead > 1.1 {
		t.Errorf("dRAID overheads = %.2f/%.2f, want ~1x", dr.WriteOverhead, dr.DReadOverhead)
	}
	out := FormatTable1(rows)
	for _, want := range []string{"dRAID", "Single-Machine", "Storage pool"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}
	t.Logf("\n%s", out)
}

func TestSizesKBQuick(t *testing.T) {
	got := sizesKB(true, 4, 8, 16, 128)
	if len(got) != 2 || got[0] != 4 || got[1] != 128 {
		t.Fatalf("quick sizes = %v", got)
	}
	if len(sizesKB(false, 4, 8)) != 2 {
		t.Fatal("non-quick should keep all")
	}
}

func TestBuildUnknownSelectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Build(Setup{System: DRAID, Targets: 4, Selector: "bogus"})
}
