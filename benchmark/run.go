package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"
)

// setUpMedian sets the workload's array up `setups` times, tearing down all
// but the last, and returns the last bed with the median set-up time.
func setUpMedian(w workload, seed int64, build func(workload, int64) (*bed, error)) (*bed, *shadow, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		b, sh, s, err := setUp(w, seed, build)
		if err != nil {
			return nil, nil, 0, err
		}
		times = append(times, s)
		if i == setups-1 {
			return b, sh, median(times), nil
		}
		if err := b.close(); err != nil {
			return nil, nil, 0, err
		}
		// Return the torn-down array's memory before the next one is built,
		// so peak RSS is one array's, not several.
		runtime.GC()
		debug.FreeOSMemory()
	}
}

// measureWindow warms the bed up and then runs the measured closed loop.
// tracing, if not nil, is on for exactly the measured loop; it is switched
// with the array quiescent.
func measureWindow(b *bed, w workload, sh *shadow, seed int64, d time.Duration, tracing *atomic.Bool) *loopResult {
	lanes := newLanes(w, seed, b.dev.Size(), inFlight)
	closedLoop(b, sh, lanes, warmup*time.Second, 1, 0)
	if tracing != nil {
		tracing.Store(true)
		defer tracing.Store(false)
	}
	return closedLoop(b, sh, lanes, d, nSlices, 0)
}

// slicedMetrics are the throughput and cost numbers of one window, each the
// median of its slices.
type slicedMetrics struct {
	n                           int
	mbps, cpuPerOp, allocsPerOp float64
	allocBytesPerByte           float64
	gcCPUShare, gcCyclesPerKop  float64
}

func (lr *loopResult) sliced() slicedMetrics {
	var at, ops, bytes, cpu, objs, abytes, gcCPU, goCPU, cycles []float64
	for _, s := range lr.snaps {
		at = append(at, s.at.Sub(lr.snaps[0].at).Seconds())
		ops = append(ops, s.ops)
		bytes = append(bytes, s.bytes)
		cpu = append(cpu, s.cpu*1e6)
		objs = append(objs, s.goc.allocObjects)
		abytes = append(abytes, s.goc.allocBytes)
		gcCPU = append(gcCPU, s.goc.gcCPU)
		goCPU = append(goCPU, s.goc.totalCPU)
		cycles = append(cycles, s.goc.gcCycles*1e3)
	}
	mb := sliceRates(bytes, at)
	for i := range mb {
		mb[i] /= 1e6
	}
	return slicedMetrics{
		n:                 len(mb),
		mbps:              median(mb),
		cpuPerOp:          median(sliceRates(cpu, ops)),
		allocsPerOp:       median(sliceRates(objs, ops)),
		allocBytesPerByte: median(sliceRates(abytes, bytes)),
		gcCPUShare:        median(sliceRates(gcCPU, goCPU)),
		gcCyclesPerKop:    median(sliceRates(cycles, ops)),
	}
}

// runRT is the untraced pass of one realtime workload: every end-to-end
// metric.
func runRT(w workload, seed int64, d time.Duration) (*result, error) {
	b, sh, setupS, err := setUpMedian(w, seed, newArrayBed)
	if err != nil {
		return nil, err
	}
	defer b.close() //nolint:errcheck // nothing left to lose at exit
	lr := measureWindow(b, w, sh, seed, d, nil)
	checked, bad := verify(b, w, sh, seed)

	res := newResult(w.name)
	res.Attempted = lr.attempted + checked
	res.Failed = lr.failed + bad
	if bad > 0 {
		fmt.Printf("%s: %d of %d read-back/parity checks failed\n", w.name, bad, checked)
	}
	if lr.userBytes == 0 {
		return nil, fmt.Errorf("%s: no op completed in the measured window", w.name)
	}
	sm := lr.sliced()
	all := slices.Concat(lr.readLat, lr.writeLat)
	slices.Sort(all)
	user := float64(lr.userBytes)
	res.set("setup_s", setupS, setups)
	res.set("mbps", sm.mbps, sm.n)
	res.set("op_p50_us", percentile(all, 0.5)/1e3, len(all))
	res.set("cpu_us_per_op", sm.cpuPerOp, sm.n)
	res.set("allocs_per_op", sm.allocsPerOp, sm.n)
	res.set("alloc_bytes_per_user_byte", sm.allocBytesPerByte, sm.n)
	res.set("host_nic_bytes_per_user_byte", float64(lr.hostNIC)/user, int(lr.attempted))
	res.set("drive_bytes_per_user_byte", float64(lr.driveRead+lr.driveWrite)/user, int(lr.attempted))
	res.set("peak_rss_mb", peakRSSMB(), 1)
	return res, nil
}

// runRTTraced is the traced pass of one realtime workload: the rungs, an
// untraced reference window on the draid.New array (Go runtime and generator
// numbers, and the base of trace.overhead_share), then the traced window on
// the benchmark's own decorated assembly. Each window gets half of d.
func runRTTraced(w workload, seed int64, d time.Duration, outDir string) (*result, error) {
	res := newResult(w.name)
	if err := runRungs(res); err != nil {
		return nil, err
	}
	window := func(build func(workload, int64) (*bed, error), tracing *atomic.Bool) (*loopResult, error) {
		b, sh, _, err := setUp(w, seed, build)
		if err != nil {
			return nil, err
		}
		defer b.close() //nolint:errcheck // the window's results are already taken
		lr := measureWindow(b, w, sh, seed, d/2, tracing)
		checked, bad := verify(b, w, sh, seed)
		res.Attempted += lr.attempted + checked
		res.Failed += lr.failed + bad
		if lr.userBytes == 0 {
			return nil, fmt.Errorf("%s: no op completed in the measured window", w.name)
		}
		return lr, nil
	}
	ref, err := window(newArrayBed, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	t := newTracer(rtDrives)
	lr, err := window(newTracedBed(t), &t.on)
	if err != nil {
		return nil, err
	}

	linked := link(t.all(), t.cmdOp)
	layerMetrics(res, linked, float64(lr.userBytes))
	path, err := writeTrace(outDir, w.name, currentEnvironment(seed, int(d.Seconds())), linked)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s: %d spans of %d user ops traced; first %d ops written to %s\n",
		w.name, len(linked), lr.attempted, traceFileOps, path)

	rs := ref.sliced()
	res.set("go.gc_cpu_share", rs.gcCPUShare, rs.n)
	res.set("go.gc_cycles_per_kop", rs.gcCyclesPerKop, rs.n)
	res.set("gen.us_per_op", float64(ref.genNanos)/1e3/float64(ref.attempted), int(ref.attempted))
	res.set("trace.overhead_share", lr.sliced().cpuPerOp/rs.cpuPerOp-1, rs.n)
	return res, nil
}
