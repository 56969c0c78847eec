package experiments

import (
	"fmt"

	"draid"
	"draid/internal/core"
	"draid/internal/fio"
	"draid/internal/hist"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/sim"
)

// Queue depths used throughout: the paper compares systems "under similar
// latency"; these depths put dRAID just past drive saturation on writes and
// keep reads at NIC goodput, mirroring that methodology.
const (
	readQD  = 32
	writeQD = 12
)

func sizesKB(quick bool, all ...int64) []int64 {
	if quick && len(all) > 2 {
		return []int64{all[0], all[len(all)-1]}
	}
	return all
}

// axis is the one quantity a sweep varies from point to point.
type axis int

const (
	ioSizeAxis    axis = iota // I/O size, KB
	chunkSizeAxis             // chunk size, KB
	widthAxis                 // stripe width = targets
	readRatioAxis             // read share of the mix, percent
	loadAxis                  // closed-loop queue depth
)

var axisNames = [...]string{"io-size", "chunk-size", "width", "read-ratio", "load(qd)"}

// sweep is one fio figure: a grid of series × swept values, each cell one
// closed-loop fio run on a freshly built array. Every such figure of the
// paper's evaluation, and every ablation of the same shape, is a row of
// sweeps; run is the only loop over them.
type sweep struct {
	id, title string
	notes     []string
	// base is the array every point builds, one series per comparison system
	// (all of them on the simulation, dRAID alone on the realtime backend).
	// variants, when set, replaces that with named setups: the ablations.
	base     Setup
	variants []variant
	axis     axis
	xlabel   string // column heading where the axis name is not it
	// values are the swept coordinates in the axis's unit; quick is the
	// -quick subset (nil: the two endpoints).
	values, quick []int64
	// The workload where the axis does not set it: I/O size, read share and
	// queue depth. A read-ratio sweep runs its pure-read point at readQD.
	ioKB    int64
	readPct int64
	qd      int
}

type variant struct {
	name  string
	setup Setup
}

var (
	smallKB    = []int64{4, 8, 16, 32, 64, 128}
	raid5KB    = []int64{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3584}
	raid6KB    = []int64{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3072}
	chunksKB   = []int64{32, 64, 128, 256, 512, 1024}
	widths     = []int64{4, 6, 8, 10, 12, 14, 16, 18}
	readPcts   = []int64{0, 25, 50, 75, 100}
	loadQDs    = []int64{2, 4, 8, 16, 32, 64, 128, 192}
	loadQuick  = []int64{4, 64}
	pipeQDs    = []int64{4, 8, 12, 16}
	barrierQDs = []int64{4, 12, 24}
	reducerQDs = []int64{8, 16, 32}
	mixedNICs  = []float64{100, 25, 100, 25, 100, 25, 100, 25}
)

func raid6(targets int, failed ...int) Setup {
	return Setup{Targets: targets, Level: raid.Raid6, FailedMembers: failed}
}

var sweeps = []sweep{
	// §9.2–9.4: RAID-5.
	{id: "fig09", title: "RAID-5 normal-state read vs I/O size (6 targets)",
		notes: []string{"all systems reach NIC goodput (~11500 MB/s) at ≥64KB; dRAID leads at small sizes (lock-free reads)"},
		base:  Setup{Targets: 6}, axis: ioSizeAxis, values: smallKB, readPct: 100, qd: readQD},
	// RMW below 1536 KB, reconstruct-write to 3584 KB, full-stripe at 3584 KB.
	{id: "fig10", title: "RAID-5 write vs I/O size (8 targets)",
		notes: []string{"dRAID leads on partial-stripe writes; parity at 3584KB (full stripe handled identically)"},
		base:  Setup{Targets: 8}, axis: ioSizeAxis, values: raid5KB, qd: writeQD},
	{id: "fig11", title: "RAID-5 write vs chunk size (128 KB I/O, 8 targets)",
		base: Setup{Targets: 8}, axis: chunkSizeAxis, values: chunksKB, ioKB: 128, qd: writeQD},
	{id: "fig12", title: "RAID-5 write vs stripe width (128 KB I/O, QD 64)",
		notes: []string{"NIC goodput is ~11500 MB/s; SPDK caps at half (2x outbound write traffic)"},
		axis:  widthAxis, values: widths, ioKB: 128, qd: 64},
	{id: "fig13", title: "RAID-5 write vs read/write ratio (128 KB, 8 targets)",
		base: Setup{Targets: 8}, axis: readRatioAxis, values: readPcts, ioKB: 128, qd: 16},
	{id: "fig14a", title: "RAID-5 latency vs bandwidth, write-only (18 targets)",
		base: Setup{Targets: 18}, axis: loadAxis, values: loadQDs, quick: loadQuick, ioKB: 128},
	{id: "fig14b", title: "RAID-5 latency vs bandwidth, 50% read + 50% write (18 targets)",
		base: Setup{Targets: 18}, axis: loadAxis, values: loadQDs, quick: loadQuick, ioKB: 128, readPct: 50},
	{id: "fig15", title: "RAID-5 degraded read vs I/O size (8 targets, 1 failed)",
		notes: []string{"1 of 8 reads triggers reconstruction; dRAID ~95% of normal-state read"},
		base:  Setup{Targets: 8, FailedMembers: []int{0}}, axis: ioSizeAxis, values: smallKB, readPct: 100, qd: readQD},
	{id: "fig16", title: "RAID-5 degraded read vs stripe width (128 KB)",
		base: Setup{FailedMembers: []int{0}}, axis: widthAxis, values: widths, ioKB: 128, readPct: 100, qd: readQD},
	{id: "fig18", title: "RAID-5 degraded write vs I/O size (8 targets, 1 failed)",
		base: Setup{Targets: 8, FailedMembers: []int{0}}, axis: ioSizeAxis, values: smallKB, qd: writeQD},

	// Appendix A: RAID-6 (the stripe is 3072 KB at 8 targets).
	{id: "fig22", title: "RAID-6 normal-state read vs I/O size (6 targets)",
		base: raid6(6), axis: ioSizeAxis, values: smallKB, readPct: 100, qd: readQD},
	{id: "fig23", title: "RAID-6 write vs I/O size (8 targets)",
		base: raid6(8), axis: ioSizeAxis, values: raid6KB, qd: writeQD},
	{id: "fig24", title: "RAID-6 write vs chunk size (128 KB I/O)",
		base: raid6(8), axis: chunkSizeAxis, values: chunksKB, ioKB: 128, qd: writeQD},
	{id: "fig25", title: "RAID-6 write vs stripe width (128 KB, QD 64)",
		base: Setup{Level: raid.Raid6}, axis: widthAxis, values: widths, ioKB: 128, qd: 64},
	{id: "fig26", title: "RAID-6 write vs read/write ratio (128 KB)",
		base: raid6(8), axis: readRatioAxis, values: readPcts, ioKB: 128, qd: 16},
	{id: "fig27a", title: "RAID-6 latency vs bandwidth, write-only (18 targets)",
		base: raid6(18), axis: loadAxis, values: loadQDs, quick: loadQuick, ioKB: 128},
	{id: "fig27b", title: "RAID-6 latency vs bandwidth, 50% read + 50% write (18 targets)",
		base: raid6(18), axis: loadAxis, values: loadQDs, quick: loadQuick, ioKB: 128, readPct: 50},
	{id: "fig28", title: "RAID-6 degraded read vs I/O size (8 targets, 1 failed)",
		base: raid6(8, 0), axis: ioSizeAxis, values: smallKB, readPct: 100, qd: readQD},
	{id: "fig29", title: "RAID-6 degraded read vs stripe width (128 KB)",
		base: Setup{Level: raid.Raid6, FailedMembers: []int{0}}, axis: widthAxis, values: widths, ioKB: 128, readPct: 100, qd: readQD},
	{id: "fig30", title: "RAID-6 degraded write vs I/O size (8 targets, 1 failed)",
		base: raid6(8, 0), axis: ioSizeAxis, values: smallKB, qd: writeQD},

	// Ablations on dRAID's design choices (DESIGN.md): two or three setups
	// of the same array under one of the sweeps above.
	//
	// §5.3 parallel I/O pipeline: overlapped bdev stages vs serial stage
	// execution, partial-stripe writes.
	{id: "ablation-pipeline", title: "Ablation: §5.3 I/O pipeline on 128 KB writes",
		variants: []variant{
			{"dRAID (pipelined)", Setup{System: DRAID, Targets: 8, Pipelined: true, PipelineSet: true}},
			{"dRAID (serial stages)", Setup{System: DRAID, Targets: 8, PipelineSet: true}},
		},
		axis: loadAxis, xlabel: "queue-depth", values: pipeQDs, quick: pipeQDs, ioKB: 128},
	// Peer-to-peer parity disaggregation: normal dRAID vs the same controller
	// computing partial-write parity on the host.
	{id: "ablation-hostparity", title: "Ablation: peer-to-peer vs host-side partial-write parity",
		variants: []variant{
			{"dRAID (peer-to-peer parity)", Setup{System: DRAID, Targets: 8}},
			{"dRAID (host parity)", Setup{System: DRAID, Targets: 8, HostParityOnly: true}},
		},
		axis: ioSizeAxis, values: []int64{32, 64, 128}, qd: writeQD},
	// §5.2 non-blocking reduce vs a barrier between Broadcast and Reduce.
	{id: "ablation-barrier", title: "Ablation: §5.2 non-blocking reduce vs phase barrier (128 KB writes)",
		variants: []variant{
			{"dRAID (non-blocking reduce)", Setup{System: DRAID, Targets: 8}},
			{"dRAID (barrier)", Setup{System: DRAID, Targets: 8, BarrierReduce: true}},
		},
		axis: loadAxis, xlabel: "queue-depth", values: barrierQDs, quick: barrierQDs, ioKB: 128},
	// §5.5 resource sharing: the same 8-wide array spread over 8 servers vs
	// packed 2-per-server. Peer parity traffic between co-located members
	// stays off the NIC, but the shared NIC and controller core carry twice
	// the members.
	{id: "ablation-colocate", title: "Ablation: §5.5 bdev co-location on 128 KB writes",
		variants: []variant{
			{"8 servers (1 bdev each)", Setup{System: DRAID, Targets: 8, BdevsPerServer: 1}},
			{"4 servers (2 bdevs each)", Setup{System: DRAID, Targets: 8, BdevsPerServer: 2}},
		},
		axis: ioSizeAxis, values: []int64{32, 128}, qd: writeQD},
	// Reducer-selection policies on degraded reads over heterogeneous NICs.
	{id: "ablation-reducer", title: "Ablation: reducer selection policy, degraded reads on 25/100G mix",
		variants: []variant{
			{"random", Setup{System: DRAID, Targets: 8, FailedMembers: []int{1}, Selector: "random", TargetGbpsList: mixedNICs}},
			{"bwaware", Setup{System: DRAID, Targets: 8, FailedMembers: []int{1}, Selector: "bwaware", TargetGbpsList: mixedNICs}},
			{"fixed", Setup{System: DRAID, Targets: 8, FailedMembers: []int{1}, Selector: "fixed", TargetGbpsList: mixedNICs}},
		},
		axis: loadAxis, xlabel: "queue-depth", values: reducerQDs, quick: reducerQDs, ioKB: 128, readPct: 100},
}

// series returns the setups the sweep plots, in plotting order, on the
// backend o names: the row's variants, or its base under every comparison
// system the backend has.
func (sw sweep) series(o Options) []variant {
	if sw.variants != nil {
		return sw.variants
	}
	out := make([]variant, len(AllSystems))
	for i, sys := range AllSystems {
		out[i] = variant{string(sys), sw.base}
		out[i].setup.System = sys
	}
	return out
}

// needsSim says why the sweep runs on the simulation only ("" when it runs
// on either backend): because one of its own setups does.
func (sw sweep) needsSim() string {
	for _, v := range sw.series(Options{Backend: draid.BackendRealtime}) {
		if why := v.setup.needsSim(); why != "" {
			return why
		}
	}
	return ""
}

// run measures the sweep's grid on the backend o names.
func (sw sweep) run(o Options) (Figure, error) {
	series := sw.series(o)
	values := sw.values
	if o.Quick && sw.quick != nil {
		values = sw.quick
	} else {
		values = sizesKB(o.Quick, values...)
	}
	names := make([]string, len(series))
	for i, v := range series {
		names[i] = v.name
	}
	xlabel := sw.xlabel
	if xlabel == "" {
		xlabel = axisNames[sw.axis]
	}
	out, err := runGrid(o, names, len(values), func(si, pi int) (Point, error) {
		s, v := series[si].setup, values[pi]
		s.Seed = o.Seed
		ioKB, readPct, qd := sw.ioKB, sw.readPct, sw.qd
		label := fmt.Sprintf("%dKB", v)
		switch sw.axis {
		case ioSizeAxis:
			ioKB = v
		case chunkSizeAxis:
			s.ChunkSize = v << 10
		case widthAxis:
			s.Targets, label = int(v), fmt.Sprintf("%d", v)
		case readRatioAxis:
			readPct, label = v, fmt.Sprintf("%d%%", v)
			if v == 100 {
				qd = readQD
			}
		case loadAxis:
			qd, label = int(v), fmt.Sprintf("qd%d", v)
		}
		r, err := measure(s, o, ioKB<<10, float64(readPct)/100, qd)
		return toPoint(float64(v), label, r), err
	})
	return Figure{ID: sw.id, Title: sw.title, XLabel: xlabel, Series: out, Notes: sw.notes}, err
}

// rebuildRate measures full-drive reconstruction throughput: qd rebuild
// operations in flight, each reconstructing one chunk of the failed member.
func rebuildRate(sys System, targets int, o Options, selector string, gbpsList []float64, seed int64, qd int) (fio.Result, error) {
	dev, cl, err := build(Setup{System: sys, Targets: targets, FailedMembers: []int{0}, Selector: selector,
		TargetGbpsList: gbpsList, Seed: seed, Backend: o.Backend, Realtime: o.Realtime})
	if err != nil {
		return fio.Result{}, err
	}
	defer cl.Close()
	geo := raid.Geometry{Level: raid.Raid5, Width: targets, ChunkSize: 512 << 10}

	measureStart := cl.Rt.Now() + sim.Time(o.Ramp)
	end := measureStart + sim.Time(o.Measure)
	res := fio.Result{Name: string(sys), Elapsed: o.Measure}
	var stripe int64
	if qd <= 0 {
		qd = 8
	}
	lat := hist.New()

	// Each op rebuilds the failed member's chunk of the next stripe, reduced
	// where the system reduces: on a peer for dRAID, on the host for SPDK.
	h := dev.(*core.HostController)
	var issue func()
	issue = func() {
		if cl.Rt.Now() >= end {
			return
		}
		s, issued := stripe%h.Layout().Stripes(), cl.Rt.Now()
		stripe++
		h.ReconstructStripeChunk(s, 0, func(_ parity.Buffer, err error) {
			if now := cl.Rt.Now(); err == nil && now > measureStart && now <= end {
				res.ReadBytes += geo.ChunkSize
				res.ReadOps++
				lat.Record(int64(now - issued))
			}
			issue()
		})
	}
	cl.Rt.Call(func() {
		for i := 0; i < qd; i++ {
			issue()
		}
	})
	cl.Rt.RunUntil(end)
	cl.Rt.Run() // ops in flight at end finish unrecorded
	cl.Rt.Call(func() { res.ReadLat = lat.Summarize() })
	return res, cl.LeakCheck()
}

// fig17a — reconstruction scalability vs stripe width.
func fig17a(o Options) (Figure, error) {
	systems := []System{SPDK, DRAID}
	ws := sizesKB(o.Quick, widths...)
	series, err := runGrid(o, systemNames(systems), len(ws), func(si, pi int) (Point, error) {
		w := int(ws[pi])
		r, err := rebuildRate(systems[si], w, o, "", nil, o.Seed, 8)
		return Point{X: float64(w), Label: fmt.Sprintf("%d", w), BW: r.ReadBandwidthMBps(), Lat: r.ReadLat.Mean / 1e3}, err
	})
	return Figure{
		ID: "fig17a", Title: "Drive reconstruction throughput vs stripe width",
		XLabel: "width", Series: series,
	}, err
}

// fig17b — random vs bandwidth-aware reducer selection with heterogeneous
// NICs (mix of 25 and 100 Gbps targets) under reconstruction load, latency
// vs bandwidth. The reducer absorbs (n−2) chunk-sized contributions per
// reconstruction, so an overloaded 25G reducer dominates latency — the
// effect the §6.2 max-min policy removes.
func fig17b(o Options) (Figure, error) {
	qds := []int{1, 2, 4, 8, 12, 16, 24}
	if o.Quick {
		qds = []int{2, 12}
	}
	selectors := []string{"random", "bwaware"}
	series, err := runGrid(o, []string{"Random", "BW-Aware"}, len(qds), func(si, pi int) (Point, error) {
		qd := qds[pi]
		r, err := rebuildRate(DRAID, 8, o, selectors[si], mixedNICs, o.Seed, qd)
		return Point{X: r.ReadBandwidthMBps(), Label: fmt.Sprintf("qd%d", qd), BW: r.ReadBandwidthMBps(), Lat: r.ReadLat.Mean / 1e3}, err
	})
	return Figure{
		ID: "fig17b", Title: "Reconstruction with heterogeneous NICs (25/100G mix): reducer policies",
		XLabel: "load(qd)", Series: series,
	}, err
}
