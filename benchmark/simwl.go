package main

import (
	"fmt"
	"runtime"
	"time"

	"draid/internal/experiments"
	"draid/internal/fio"
	"draid/internal/raid"
	"draid/internal/sim"
)

// simPhase is one fio job of sim-paper-mix: a fresh cluster at the paper's
// default shape (dRAID, RAID-5, 8 targets, 512 KiB chunk, size-only), a
// 20 ms virtual ramp, then a fixed virtual window. The windows are constants
// and do not scale with --seconds, so the virtual results of any two runs
// with the same seed are comparable bit for bit; a run repeats the three
// phases until its wall-clock budget is spent and reports medians over the
// repetitions.
type simPhase struct {
	name      string
	ioSize    int64
	readShare float64
	failed    []int
	window    sim.Duration
}

const (
	simRamp       = 20 * sim.Millisecond
	simQueueDepth = 32
)

var simPhases = []simPhase{
	{name: "write", ioSize: 128 << 10, window: 50 * sim.Millisecond},
	{name: "smallwrite", ioSize: 4 << 10, window: 20 * sim.Millisecond},
	{name: "dread", ioSize: 128 << 10, readShare: 1, failed: []int{failedDrive}, window: 50 * sim.Millisecond},
}

// simVirtual is what the model computed in one phase's window. Every field
// is a pure function of the seed.
type simVirtual struct {
	ops, userBytes    int64
	events            uint64
	hostOut, hostIn   int64
	driveRead, driveW int64
	mbps              float64
	errors            int64
}

// simWall is what the phase cost the machine running it.
type simWall struct {
	setup, wall float64 // seconds
	cpu         float64
	goc         goCounters // deltas over the window
}

func runSimPhase(p simPhase, seed int64) (simVirtual, simWall) {
	// Every phase starts from the same collector state. Without this the heap
	// goal one phase leaves behind decides whether the next runs sixty GC
	// cycles or none, and its wall time swings tenfold.
	runtime.GC()
	t0 := time.Now()
	dev, cl := experiments.Build(experiments.Setup{
		System: experiments.DRAID, Targets: rtDrives, Level: raid.Raid5, ChunkSize: 512 << 10,
		FailedMembers: p.failed, Seed: seed,
	})
	job := fio.Start(fio.Job{
		Name: p.name, Dev: dev, Eng: cl.Eng, IOSize: p.ioSize, ReadRatio: p.readShare,
		QueueDepth: simQueueDepth, Ramp: simRamp, Measure: p.window, Seed: seed,
	})
	cl.Eng.RunUntil(job.End - sim.Time(p.window))
	var w simWall
	w.setup = time.Since(t0).Seconds()

	cl.ResetTraffic()
	driveBytes := func() (r, wr int64) {
		for _, d := range cl.Drives {
			st := d.Stats()
			r += st.ReadBytes
			wr += st.WriteBytes
		}
		return
	}
	dr0, dw0 := driveBytes()
	ev0 := cl.Eng.Processed()
	g0, c0, t1 := readGoCounters(), cpuSeconds(), time.Now()
	cl.Eng.RunUntil(job.End)
	w.wall = time.Since(t1).Seconds()
	w.cpu = cpuSeconds() - c0
	w.goc = readGoCounters().sub(g0)

	r := job.Result()
	dr1, dw1 := driveBytes()
	out, in := cl.TotalHostBytes()
	return simVirtual{
		ops: r.ReadOps + r.WriteOps, userBytes: r.ReadBytes + r.WriteBytes,
		events:  cl.Eng.Processed() - ev0,
		hostOut: out, hostIn: in, driveRead: dr1 - dr0, driveW: dw1 - dw0,
		mbps: r.BandwidthMBps(), errors: r.Errors,
	}, w
}

// simIteration is one pass over the three phases.
type simIteration struct {
	virtual []simVirtual
	wall    []simWall
}

func runSimIteration(seed int64) simIteration {
	var it simIteration
	for _, p := range simPhases {
		v, w := runSimPhase(p, seed)
		it.virtual = append(it.virtual, v)
		it.wall = append(it.wall, w)
	}
	return it
}

// runSim repeats the three phases until budget is spent (at least twice, so
// determinism is always checked) and reports both metric sets. Any virtual
// number that differs between two repetitions is a failure.
func runSim(seed int64, budget time.Duration) (*result, error) {
	var its []simIteration
	start := time.Now()
	for len(its) < 2 || time.Since(start) < budget {
		its = append(its, runSimIteration(seed))
	}
	first := its[0].virtual
	res := newResult("sim-paper-mix")
	for _, it := range its {
		res.Attempted++
		for i, v := range it.virtual {
			if v != first[i] || v.errors != 0 {
				res.Failed++
				fmt.Printf("sim-paper-mix: phase %s virtual results differ between repetitions or report errors: %+v vs %+v\n",
					simPhases[i].name, v, first[i])
				break
			}
		}
	}

	// The two byte ratios are the mean of the phases' own ratios, not a
	// pooled ratio: pooled, the phases would weigh in by their simulated
	// throughput, which moves with the seed.
	var ops, userBytes, events, nic, drive float64
	for _, v := range first {
		ops += float64(v.ops)
		userBytes += float64(v.userBytes)
		events += float64(v.events)
		nic += float64(v.hostOut+v.hostIn) / float64(v.userBytes) / float64(len(first))
		drive += float64(v.driveRead+v.driveW) / float64(v.userBytes) / float64(len(first))
	}
	var setup, mbps, usPerOp, cpuPerOp, allocs, allocBytes, evps, wallPerVirt, gcShare, gcCycles []float64
	var virtualS float64
	for _, p := range simPhases {
		virtualS += sim.Seconds(p.window)
	}
	for _, it := range its {
		var s, wall, cpu float64
		var g goCounters
		for _, w := range it.wall {
			s += w.setup
			wall += w.wall
			cpu += w.cpu
			g = g.add(w.goc)
		}
		setup = append(setup, s)
		mbps = append(mbps, userBytes/1e6/wall)
		usPerOp = append(usPerOp, wall*1e6/ops)
		cpuPerOp = append(cpuPerOp, cpu*1e6/ops)
		allocs = append(allocs, g.allocObjects/ops)
		allocBytes = append(allocBytes, g.allocBytes/userBytes)
		evps = append(evps, events/wall)
		wallPerVirt = append(wallPerVirt, wall/virtualS)
		if g.totalCPU > 0 {
			gcShare = append(gcShare, g.gcCPU/g.totalCPU)
		}
		gcCycles = append(gcCycles, g.gcCycles/ops*1e3)
	}
	n := len(its)
	res.set("setup_s", median(setup), n)
	res.set("mbps", median(mbps), n)
	res.set("op_p50_us", median(usPerOp), n)
	res.set("cpu_us_per_op", median(cpuPerOp), n)
	res.set("allocs_per_op", median(allocs), n)
	res.set("alloc_bytes_per_user_byte", median(allocBytes), n)
	res.set("host_nic_bytes_per_user_byte", nic, len(first))
	res.set("drive_bytes_per_user_byte", drive, len(first))
	res.set("peak_rss_mb", peakRSSMB(), 1)

	res.set("sim.events_per_s", median(evps), n)
	res.set("sim.wall_s_per_virtual_s", median(wallPerVirt), n)
	res.set("go.gc_cpu_share", median(gcShare), len(gcShare))
	res.set("go.gc_cycles_per_kop", median(gcCycles), n)
	for i, p := range simPhases {
		v := first[i]
		res.set("sim."+p.name+"_mbps", v.mbps, 1)
		res.set("simmodel."+p.name+".host_nic_out_per_user_byte", float64(v.hostOut)/float64(v.userBytes), 1)
		res.set("simmodel."+p.name+".events_per_user_op", float64(v.events)/float64(v.ops), 1)
	}
	return res, nil
}
