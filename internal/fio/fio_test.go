package fio

import (
	"strings"
	"testing"

	"draid/internal/backend"
	"draid/internal/blockdev"
	"draid/internal/sim"
)

func testJob(eng Engine, dev blockdev.Device) Job {
	return Job{
		Name: "test", Dev: dev, Eng: eng,
		IOSize: 4096, QueueDepth: 4,
		Ramp: sim.Millisecond, Measure: 10 * sim.Millisecond,
	}
}

func TestClosedLoopThroughput(t *testing.T) {
	eng := backend.SimRunner(sim.NewEngine(1))
	dev := blockdev.NewMem(eng, 1<<20, 100*sim.Microsecond)
	job := testJob(eng, dev)
	job.ReadRatio = 1.0
	res := Run(job)
	// QD=4, 100us per op ⇒ ~40k IOPS.
	if res.IOPS() < 30000 || res.IOPS() > 45000 {
		t.Fatalf("IOPS = %v, want ~40000", res.IOPS())
	}
	if res.WriteOps != 0 {
		t.Fatal("read-only job performed writes")
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
}

func TestLatencyMatchesDevice(t *testing.T) {
	eng := backend.SimRunner(sim.NewEngine(1))
	dev := blockdev.NewMem(eng, 1<<20, 250*sim.Microsecond)
	job := testJob(eng, dev)
	job.ReadRatio = 1.0
	res := Run(job)
	if res.ReadLat.Mean < 245e3 || res.ReadLat.Mean > 265e3 {
		t.Fatalf("mean latency = %v ns, want ~250us", res.ReadLat.Mean)
	}
}

func TestMixedRatioApproximatelyHonored(t *testing.T) {
	eng := backend.SimRunner(sim.NewEngine(1))
	dev := blockdev.NewMem(eng, 1<<20, 10*sim.Microsecond)
	job := testJob(eng, dev)
	job.ReadRatio = 0.75
	res := Run(job)
	frac := float64(res.ReadOps) / float64(res.ReadOps+res.WriteOps)
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("read fraction = %v, want ~0.75", frac)
	}
}

func TestRampExcluded(t *testing.T) {
	eng := backend.SimRunner(sim.NewEngine(1))
	dev := blockdev.NewMem(eng, 1<<20, 100*sim.Microsecond)
	job := testJob(eng, dev)
	job.ReadRatio = 1
	job.Ramp = 5 * sim.Millisecond
	job.Measure = 5 * sim.Millisecond
	res := Run(job)
	// Ops completed in the ramp must not count: with 100us ops and QD 4,
	// a 5ms window fits ~200 ops.
	if res.ReadOps > 230 {
		t.Fatalf("ops = %d, ramp window leaked into measurement", res.ReadOps)
	}
}

func TestBandwidthCalculation(t *testing.T) {
	r := Result{ReadBytes: 5e6, WriteBytes: 5e6, Elapsed: sim.Second}
	if r.BandwidthMBps() != 10 {
		t.Fatalf("bw = %v, want 10", r.BandwidthMBps())
	}
	if r.ReadBandwidthMBps() != 5 || r.WriteBandwidthMBps() != 5 {
		t.Fatal("split bandwidth wrong")
	}
	var zero Result
	if zero.BandwidthMBps() != 0 || zero.IOPS() != 0 || zero.AvgLatency() != 0 {
		t.Fatal("zero result should report zeros")
	}
}

func TestStringContainsName(t *testing.T) {
	eng := backend.SimRunner(sim.NewEngine(1))
	dev := blockdev.NewMem(eng, 1<<20, 10*sim.Microsecond)
	res := Run(testJob(eng, dev))
	if !strings.Contains(res.String(), "test") {
		t.Fatalf("summary %q missing job name", res.String())
	}
}

func TestWorkingSetRestrictsOffsets(t *testing.T) {
	eng := backend.SimRunner(sim.NewEngine(1))
	dev := blockdev.NewMem(eng, 1<<20, sim.Microsecond)
	job := testJob(eng, dev)
	job.WorkingSet = 64 << 10
	res := Run(job)
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
}

func TestMaterializedPayload(t *testing.T) {
	eng := backend.SimRunner(sim.NewEngine(1))
	dev := blockdev.NewMem(eng, 1<<20, sim.Microsecond)
	job := testJob(eng, dev)
	job.ReadRatio = 0
	job.Materialize = true
	res := Run(job)
	if res.WriteOps == 0 {
		t.Fatal("no writes recorded")
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() Result {
		eng := backend.SimRunner(sim.NewEngine(7))
		dev := blockdev.NewMem(eng, 1<<20, 50*sim.Microsecond)
		job := testJob(eng, dev)
		job.Seed = 42
		job.ReadRatio = 0.5
		return Run(job)
	}
	a, b := run(), run()
	if a.ReadOps != b.ReadOps || a.WriteOps != b.WriteOps || a.ReadLat.Mean != b.ReadLat.Mean {
		t.Fatalf("non-deterministic results: %+v vs %+v", a, b)
	}
}

func TestTinyDevicePanics(t *testing.T) {
	eng := backend.SimRunner(sim.NewEngine(1))
	dev := blockdev.NewMem(eng, 1024, 0)
	job := testJob(eng, dev)
	job.IOSize = 4096
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Run(job)
}
