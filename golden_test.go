package draid_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"draid"
	"draid/internal/experiments"
)

// The golden files under testdata/golden were captured from the tree
// immediately before the volume-layer refactor. These tests pin the
// refactor's core promise: a single-volume array built through draid.New is
// byte-for-byte identical to the pre-volume code on the same seed — same
// trace, same traffic, same experiment reports.

func golden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/golden/" + name)
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	return b
}

// runGoldenWorkload drives the canonical golden workload (two writes, a
// member failure, a degraded read) against cfg and returns the array for
// trace/stats comparison.
func runGoldenWorkload(t *testing.T, cfg draid.Config) *draid.Array {
	t.Helper()
	arr, err := draid.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := arr.WriteSync(0, payload); err != nil {
		t.Fatal(err)
	}
	if err := arr.WriteSync(96<<10, payload[:32<<10]); err != nil {
		t.Fatal(err)
	}
	arr.FailDrive(2)
	got, err := arr.ReadSync(0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded read returned wrong data")
	}
	return arr
}

func goldenTrace(t *testing.T, arr *draid.Array) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := arr.Trace().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenSingleVolumeTraceAndStats(t *testing.T) {
	arr := runGoldenWorkload(t, draid.Config{
		Drives: 5, ChunkSize: 64 << 10, DriveCapacity: 1 << 20,
		Seed: 3, Observe: draid.Observe{Trace: true},
	})
	if got, want := goldenTrace(t, arr), golden(t, "golden_single_volume_trace.json"); !bytes.Equal(got, want) {
		t.Errorf("single-volume Chrome trace drifted from pre-refactor golden (%d bytes vs %d)",
			len(got), len(want))
	}

	o, in := arr.HostTraffic()
	stats := arr.Status().Counters
	summary := fmt.Sprintf("hostOut=%d hostIn=%d writes=%d reads=%d degraded=%d rmw=%d full=%d\n",
		o, in, stats.Writes, stats.Reads, stats.DegradedReads, stats.RMWWrites, stats.FullStripeWrites)
	if want := golden(t, "golden_single_volume_stats.txt"); summary != string(want) {
		t.Errorf("traffic/stats summary drifted:\n got: %s want: %s", summary, want)
	}
}

// TestGoldenIntegrityDisabledByteIdentical pins the integrity layer's
// zero-cost-when-off promise: with Integrity explicitly false (the default)
// the golden workload produces a trace byte-identical to the pre-integrity
// golden capture, and every integrity surface stays inert.
func TestGoldenIntegrityDisabledByteIdentical(t *testing.T) {
	arr := runGoldenWorkload(t, draid.Config{
		Drives: 5, ChunkSize: 64 << 10, DriveCapacity: 1 << 20,
		Seed: 3, Observe: draid.Observe{Trace: true},
		Integrity: false,
	})
	if got, want := goldenTrace(t, arr), golden(t, "golden_single_volume_trace.json"); !bytes.Equal(got, want) {
		t.Errorf("integrity-disabled trace not byte-identical to golden (%d bytes vs %d)",
			len(got), len(want))
	}
	if n := arr.Status().Counters.MediaErrors; n != 0 {
		t.Errorf("integrity disabled but host counted %d media errors", n)
	}
	if lost := arr.Status().Lost; len(lost) != 0 {
		t.Errorf("integrity disabled but lost regions recorded: %v", lost)
	}
	if st := arr.Status().Scrub; st.Enabled || st.Passes != 0 || st.MediaRepairs != 0 {
		t.Errorf("integrity disabled but scrubber reports activity: %+v", st)
	}
}

func TestGoldenExperimentReports(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps in -short mode")
	}
	for _, tc := range []struct {
		id     string
		seed   int64
		golden string
	}{
		{"fig09", 1, "golden_fig09_quick.txt"},
		{"fig12", 7, "golden_fig12_quick_seed7.txt"},
		// Host-side decode paths (the host-stripe-writes ablation through the
		// fallback writer, RAID-6 degraded read and write figures), captured
		// before the decoder merge.
		{"ablation-hostparity", 1, "golden_ablation_hostparity_quick.txt"},
		{"fig28", 1, "golden_fig28_quick.txt"},
		{"fig30", 1, "golden_fig30_quick.txt"},
		// Hedging, destage, declustered rebuild and QoS admission, captured
		// before the stripe-op record they all sit on was rewritten.
		{"greyfail", 1, "golden_greyfail_quick.txt"},
		{"writeback", 1, "golden_writeback_quick.txt"},
		{"decluster", 1, "golden_decluster_quick.txt"},
		{"multivol-noisy", 1, "golden_multivol_noisy_quick.txt"},
	} {
		t.Run(tc.id, func(t *testing.T) {
			got, err := experiments.Run(tc.id, experiments.Options{Quick: true, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			if want := golden(t, tc.golden); got != string(want) {
				t.Errorf("%s quick report drifted from pre-refactor golden", tc.id)
			}
		})
	}
}
