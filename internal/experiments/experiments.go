// Package experiments encodes every table and figure of the paper's
// evaluation (§9 and Appendix A) as a runnable experiment: workload,
// parameter sweep, systems under test, and the series the paper plots.
// cmd/draid-bench and the repository's top-level benchmarks are thin
// wrappers over this package.
package experiments

import (
	"fmt"
	"strings"

	"draid"
	"draid/internal/blockdev"
	"draid/internal/cluster"
	"draid/internal/core"
	"draid/internal/fio"
	"draid/internal/raid"
	"draid/internal/recon"
	"draid/internal/sim"
)

// System identifies a system under test.
type System string

// The paper's comparison systems.
const (
	Linux System = "Linux"
	SPDK  System = "SPDK"
	DRAID System = "dRAID"
)

// AllSystems lists the systems in the paper's plotting order.
var AllSystems = []System{Linux, SPDK, DRAID}

// Options tune experiment execution.
type Options struct {
	// Ramp and Measure are the per-point warm-up and measurement windows
	// (defaults 30ms / 100ms of virtual time).
	Ramp    sim.Duration
	Measure sim.Duration
	// QueueDepth is the default closed-loop depth (default 32).
	QueueDepth int
	// Quick shrinks sweeps to their endpoints for smoke runs.
	Quick bool
	// Seed drives all randomness (default 1).
	Seed int64
	// Parallel is the maximum number of concurrently running simulations
	// (≤ 1 means serial). Each measurement point owns an independent engine,
	// and results are collected in input order, so any value produces output
	// byte-identical to a serial run.
	Parallel int
	// Backend and Realtime name the substrate every point runs on, with the
	// meaning they have on draid.Config (default: the simulation). On the
	// realtime backend the windows are wall-clock — NIC rates and CPU costs
	// are simulation models — and points run serially whatever Parallel
	// says; IDs that need simulation internals fail with
	// draid.ErrUnsupported (see Supported).
	Backend  draid.BackendKind
	Realtime draid.RealtimeOptions
}

func (o Options) realtime() bool { return o.Backend == draid.BackendRealtime }

// parallel returns the effective worker count. A realtime point is a
// wall-clock measurement and must not share the CPU with another.
func (o Options) parallel() int {
	if o.Parallel <= 1 || o.realtime() {
		return 1
	}
	return o.Parallel
}

func (o Options) withDefaults() Options {
	if o.Ramp == 0 {
		o.Ramp = 30 * sim.Millisecond
	}
	if o.Measure == 0 {
		o.Measure = 100 * sim.Millisecond
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Point is one measurement.
type Point struct {
	X     float64 // sweep coordinate (KB, width, ratio, ...)
	Label string
	BW    float64 // MB/s
	Lat   float64 // mean latency, microseconds
	Extra float64 // figure-specific (e.g. KIOPS)
}

// Series is one line on a figure.
type Series struct {
	System string
	Points []Point
}

// Figure is a reproduced table/figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Series []Series
	Notes  []string
	// ExtraLabel names the third quantity the figure's points carry in
	// Extra (e.g. "amp x", "p999 us"). When set, String prints that column
	// for every series; a figure without one renders BW and Lat only.
	ExtraLabel string
}

// String renders the figure as an aligned text table (one row per X, one
// BW/Lat column pair per system, plus Extra where the figure names it) —
// the same rows the paper plots.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " | %14s MB/s %9s us", s.System, "")
		if f.ExtraLabel != "" {
			fmt.Fprintf(&b, " %9s %s", "", f.ExtraLabel)
		}
	}
	b.WriteString("\n")
	if len(f.Series) > 0 {
		for i := range f.Series[0].Points {
			p0 := f.Series[0].Points[i]
			label := p0.Label
			if label == "" {
				label = fmt.Sprintf("%g", p0.X)
			}
			fmt.Fprintf(&b, "%-12s", label)
			for _, s := range f.Series {
				if i < len(s.Points) {
					fmt.Fprintf(&b, " | %14.1f      %9.1f   ", s.Points[i].BW, s.Points[i].Lat)
					if f.ExtraLabel != "" {
						fmt.Fprintf(&b, " %9.2f %*s", s.Points[i].Extra, len(f.ExtraLabel), "")
					}
				}
			}
			b.WriteString("\n")
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Setup describes a testbed + array for one measurement run.
type Setup struct {
	System    System
	Targets   int
	Level     raid.Level
	ChunkSize int64
	// TargetGbpsList enables heterogeneous NICs (Figure 17b).
	TargetGbpsList []float64
	// FailedMembers are pre-failed (degraded-state experiments).
	FailedMembers []int
	// Selector overrides the dRAID reducer policy ("random", "bwaware",
	// "fixed"; empty = random).
	Selector string
	// Pipelined disables the §5.3 pipeline when false+PipelineSet.
	Pipelined   bool
	PipelineSet bool
	// BarrierReduce enables the §5.2 barrier ablation.
	BarrierReduce bool
	// BdevsPerServer co-locates members on shared servers (§5.5).
	BdevsPerServer int
	// HostParityOnly moves dRAID's partial-write parity to the host, through
	// the consistency path (the ablation-hostparity arm).
	HostParityOnly bool
	Seed           int64
	// Backend and Realtime select the substrate, as on draid.Config (default:
	// the simulation). The realtime backend builds only setups needsSim
	// accepts.
	Backend  draid.BackendKind
	Realtime draid.RealtimeOptions
}

// needsSim says why a setup can only be built on the simulation ("" when the
// realtime backend can build it too): a simulated link, core or server knob.
func (s Setup) needsSim() string {
	switch {
	case s.TargetGbpsList != nil || s.Selector == "bwaware":
		return "NIC line rates and queue occupancy are simulation models"
	case s.BdevsPerServer > 1:
		return "bdev co-location shares a simulated NIC and core"
	case s.BarrierReduce:
		return "the barrier ablation is a knob of the simulated servers"
	}
	return ""
}

// Build assembles the cluster and device for a setup. Every run gets a
// fresh, independent cluster; the caller Closes it (a no-op on the
// simulation). It panics where build reports an error.
func Build(s Setup) (blockdev.Device, *cluster.Cluster) {
	dev, cl, err := build(s)
	if err != nil {
		panic(err.Error())
	}
	return dev, cl
}

func build(s Setup) (blockdev.Device, *cluster.Cluster, error) {
	if s.ChunkSize == 0 {
		s.ChunkSize = 512 << 10
	}
	if s.Level == 0 {
		s.Level = raid.Raid5
	}
	cl, err := newCluster(s)
	if err != nil {
		return nil, nil, err
	}
	geo := raid.Geometry{Level: s.Level, Width: s.Targets, ChunkSize: s.ChunkSize}

	cfg := core.Config{Geometry: geo}
	switch s.System {
	case DRAID:
		if s.HostParityOnly {
			cfg.Reduce.Writes = core.HostStripeWrites
		}
	case SPDK:
		cfg.Reduce = core.SPDK()
	case Linux:
		cfg.Reduce = core.Linux()
	default:
		panic("experiments: unknown system " + string(s.System))
	}
	switch s.Selector {
	case "", "random":
		// default
	case "fixed":
		cfg.Selector = recon.FixedSelector{}
	case "bwaware":
		cfg.Selector = cl.BWAwareSelector(s.Targets)
	default:
		panic("experiments: unknown selector " + s.Selector)
	}
	dev := cl.NewDRAID(cfg)
	for _, m := range s.FailedMembers {
		failMember(cl, dev, m)
	}
	return dev, cl, nil
}

// newCluster assembles the size-only testbed a setup runs on, on the backend
// it names; only setups needsSim accepts exist on the realtime one.
func newCluster(s Setup) (*cluster.Cluster, error) {
	if s.Seed == 0 {
		s.Seed = 1
	}
	pipelined := !s.PipelineSet || s.Pipelined
	if s.Backend == draid.BackendRealtime {
		if why := s.needsSim(); why != "" {
			return nil, fmt.Errorf("experiments: realtime backend: %s: %w", why, draid.ErrUnsupported)
		}
		return cluster.NewRealtime(cluster.RealtimeSpec{
			Targets: s.Targets, Seed: s.Seed, DriveCapacity: 1 << 30,
			SizeOnly:  s.Realtime.Dir == "", // file media need real bytes
			Pipelined: pipelined, TCP: s.Realtime.TCP, Dir: s.Realtime.Dir,
		})
	}
	spec := cluster.DefaultSpec()
	spec.Targets = s.Targets
	spec.Elide = true
	spec.Seed = s.Seed
	spec.TargetGbpsList = s.TargetGbpsList
	spec.Pipelined = pipelined
	spec.BarrierReduce = s.BarrierReduce
	spec.BdevsPerServer = s.BdevsPerServer
	return cluster.New(spec), nil
}

// measure runs one fio point against a fresh setup on the backend o names,
// then drains the ops the closed loop left in flight at the window's end and
// closes the cluster. A point whose I/Os failed, or whose idle cluster still
// holds buffers, reductions or stripe locks, is an error, not a data point.
func measure(s Setup, o Options, ioSize int64, readRatio float64, qd int) (fio.Result, error) {
	s.Backend, s.Realtime = o.Backend, o.Realtime
	dev, cl, err := build(s)
	if err != nil {
		return fio.Result{}, err
	}
	defer cl.Close()
	if qd == 0 {
		qd = o.QueueDepth
	}
	r := fio.Run(fio.Job{
		Name: string(s.System), Dev: dev, Eng: cl.Rt,
		IOSize: ioSize, ReadRatio: readRatio, QueueDepth: qd,
		Ramp: o.Ramp, Measure: o.Measure, Seed: o.Seed,
	})
	if r.Errors > 0 {
		return r, fmt.Errorf("experiments: %s: %d I/Os failed", s.System, r.Errors)
	}
	cl.Rt.Run()
	return r, cl.LeakCheck()
}

func toPoint(x float64, label string, r fio.Result) Point {
	return Point{X: x, Label: label, BW: r.BandwidthMBps(), Lat: r.AvgLatency()}
}
