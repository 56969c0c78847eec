package main

import (
	"sync/atomic"
	"testing"
)

// counted runs perLane ops on every lane of a freshly set-up bed and checks
// the array's contents afterwards.
func counted(t *testing.T, w workload, build func(workload, int64) (*bed, error), tracing *atomic.Bool) *loopResult {
	t.Helper()
	const seed, perLane = 7, 100
	b, sh, _, err := setUp(w, seed, build)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close() //nolint:errcheck // test teardown
	if tracing != nil {
		tracing.Store(true)
	}
	lr := closedLoop(b, sh, newLanes(w, seed, b.dev.Size(), inFlight), 0, 0, perLane)
	if tracing != nil {
		tracing.Store(false)
	}
	if lr.attempted != perLane*inFlight || lr.failed != 0 {
		t.Fatalf("%s: attempted %d failed %d", w.name, lr.attempted, lr.failed)
	}
	if checked, bad := verify(b, w, sh, seed); bad != 0 {
		t.Fatalf("%s: %d of %d read-back checks failed", w.name, bad, checked)
	}
	return lr
}

// TestTracedAssemblyMatchesDraidNew pins the benchmark's own decorated
// cluster to the real one: for the same 200 seeded ops both must move exactly
// the same bytes over the host NIC and issue exactly the same drive ops, and
// the trace must account for every one of them — so the traced assembly
// cannot drift from draid.New unnoticed.
func TestTracedAssemblyMatchesDraidNew(t *testing.T) {
	for _, name := range []string{"rt-write-4k", "rt-read-128k"} {
		w, _ := findWorkload(name)
		real := counted(t, w, newArrayBed, nil)
		tr := newTracer(rtDrives)
		traced := counted(t, w, newTracedBed(tr), &tr.on)

		if real.hostNIC != traced.hostNIC || real.driveOpsCnt != traced.driveOpsCnt ||
			real.driveRead != traced.driveRead || real.driveWrite != traced.driveWrite {
			t.Errorf("%s: draid.New moved nic=%d driveops=%d r=%d w=%d, traced assembly nic=%d driveops=%d r=%d w=%d",
				name, real.hostNIC, real.driveOpsCnt, real.driveRead, real.driveWrite,
				traced.hostNIC, traced.driveOpsCnt, traced.driveRead, traced.driveWrite)
		}

		spans := tr.all()
		linked := link(spans, tr.cmdOp)
		var ops, drives, hostWire, derived int64
		for _, s := range linked {
			switch s.kind {
			case spanOp:
				ops++
			case spanDrive:
				drives++
			case spanSend:
				if s.from < 0 || s.node < 0 {
					hostWire += int64(s.bytes)
				}
			case spanServer:
				derived++
			}
			if s.op == 0 {
				t.Fatalf("%s: span %+v belongs to no user op", name, s)
			}
		}
		if int64(len(linked))-derived != int64(len(spans)) {
			t.Errorf("%s: %d of %d recorded spans linked to a user op", name, int64(len(linked))-derived, len(spans))
		}
		if ops != traced.attempted || drives != traced.driveOpsCnt || hostWire != traced.hostNIC {
			t.Errorf("%s: trace has %d ops, %d drive spans, %d host wire bytes; counters say %d, %d, %d",
				name, ops, drives, hostWire, traced.attempted, traced.driveOpsCnt, traced.hostNIC)
		}
		res := newResult(name)
		layerMetrics(res, linked, float64(traced.userBytes))
		if got, want := res.Metrics["drive.ops_per_op"], float64(real.driveOpsCnt)/float64(real.attempted); got != want {
			t.Errorf("%s: drive.ops_per_op %v, draid.New's drives counted %v", name, got, want)
		}
		if res.Metrics["transport.capsules_per_op"] == 0 || res.Metrics["server.cmds_per_op"] == 0 {
			t.Errorf("%s: empty layer metrics %v", name, res.Metrics)
		}
	}
}
