package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
)

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set in MB (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// goCounters is one reading of the Go runtime's cumulative counters.
type goCounters struct {
	allocObjects float64
	allocBytes   float64
	gcCycles     float64
	gcCPU        float64 // seconds
	totalCPU     float64 // seconds, as the runtime accounts it
}

// sub returns the counters accumulated since an earlier reading.
func (g goCounters) sub(o goCounters) goCounters {
	return goCounters{g.allocObjects - o.allocObjects, g.allocBytes - o.allocBytes,
		g.gcCycles - o.gcCycles, g.gcCPU - o.gcCPU, g.totalCPU - o.totalCPU}
}

// add returns the sum of two deltas.
func (g goCounters) add(o goCounters) goCounters {
	return goCounters{g.allocObjects + o.allocObjects, g.allocBytes + o.allocBytes,
		g.gcCycles + o.gcCycles, g.gcCPU + o.gcCPU, g.totalCPU + o.totalCPU}
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/user:cpu-seconds"},
}

// readGoCounters samples the runtime without stopping the world. It must
// not be called concurrently with itself (it reuses one sample buffer).
func readGoCounters() goCounters {
	metrics.Read(goSamples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return goCounters{
		allocObjects: val(goSamples[0]),
		allocBytes:   val(goSamples[1]),
		gcCycles:     val(goSamples[2]),
		gcCPU:        val(goSamples[3]),
		totalCPU:     val(goSamples[3]) + val(goSamples[4]),
	}
}

// environment is the header every result carries, so two results are only
// compared knowing what machine and tree produced them.
type environment struct {
	CoresVisible int    `json:"cores_visible"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	GitRev       string `json:"git_rev"`
	Seed         int64  `json:"seed"`
	InFlight     int    `json:"in_flight"`
	Seconds      int    `json:"measured_seconds"`
	Slices       int    `json:"slices"`
}

func currentEnvironment(seed int64, seconds int) environment {
	return environment{
		CoresVisible: runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GitRev:       gitRev(),
		Seed:         seed,
		InFlight:     inFlight,
		Seconds:      seconds,
		Slices:       nSlices,
	}
}

// gitRev returns the commit the binary was built from, as the go tool
// stamped it; a tree that is not a repository reports "unknown".
func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
