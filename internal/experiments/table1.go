package experiments

import (
	"errors"
	"fmt"
	"strings"

	"draid/internal/baseline"
	"draid/internal/blockdev"
	"draid/internal/cpu"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/sim"
	"draid/internal/simnet"
	"draid/internal/ssd"
)

// Table1Row is one architecture's measured and qualitative properties.
type Table1Row struct {
	Architecture   string
	FaultTolerance string
	HotSpare       string
	Scaling        string
	WriteOverhead  float64 // client/host outbound bytes per user byte written
	DReadOverhead  float64 // client/host inbound bytes per user byte on degraded read
}

// Table1 reproduces the paper's Table 1: the network overheads are measured
// on the simulated fabric (single-chunk writes and degraded reads of one
// chunk); the qualitative rows are architectural facts.
func Table1(o Options) []Table1Row {
	o = o.withDefaults()
	const chunk = 512 << 10
	geo := raid.Geometry{Level: raid.Raid5, Width: 8, ChunkSize: chunk}

	rows := []Table1Row{
		{
			Architecture: "Single-Machine", FaultTolerance: "Disk",
			HotSpare: "Dedicated", Scaling: "Pre-provisioning",
		},
		{
			Architecture: "Distributed", FaultTolerance: "Disk & Server",
			HotSpare: "Storage pool", Scaling: "On demand",
		},
		{
			Architecture: "dRAID", FaultTolerance: "Disk & Server",
			HotSpare: "Storage pool", Scaling: "On demand",
		},
	}

	// The three architectures are independent simulations; measure them with
	// the same bounded fan-out as figure grids.
	measurers := []func() (float64, float64){
		func() (float64, float64) { // single-machine
			eng := sim.NewEngine(o.Seed)
			net := simnet.New(eng, simnet.DefaultConfig())
			drv := ssd.DefaultSpec()
			drv.Capacity = 256 << 20
			sm := baseline.NewSingleMachine(eng, net, geo, drv, cpu.DefaultCosts(), 100)
			return measureOverheads(eng, sm, chunk, func(m int) { sm.SetFailed(m, true) },
				func() (int64, int64) { return sm.Client().BytesOut(), sm.Client().BytesIn() },
				func() { sm.Client().ResetCounters() }, geo)
		},
		func() (float64, float64) { return clusterOverheads(SPDK, geo, o.Seed) }, // distributed host-centric
		func() (float64, float64) { return clusterOverheads(DRAID, geo, o.Seed) },
	}
	type overheads struct{ w, r float64 }
	measured := parMap(o.parallel(), len(measurers), func(i int) overheads {
		w, r := measurers[i]()
		return overheads{w, r}
	})
	for i, m := range measured {
		rows[i].WriteOverhead, rows[i].DReadOverhead = m.w, m.r
	}
	return rows
}

// clusterOverheads measures one of the two fabric-attached architectures at
// the simulated host NIC.
func clusterOverheads(sys System, geo raid.Geometry, seed int64) (wOver, rOver float64) {
	dev, cl := Build(Setup{System: sys, Targets: geo.Width, Level: geo.Level, ChunkSize: geo.ChunkSize, Seed: seed})
	return measureOverheads(cl.Eng, dev, geo.ChunkSize, func(m int) { failMember(cl, dev, m) },
		cl.TotalHostBytes, cl.ResetTraffic, geo)
}

// measureOverheads performs one single-chunk RMW write and one degraded
// single-chunk read and reports client-side traffic per user byte.
func measureOverheads(eng *sim.Engine, dev blockdev.Device, chunk int64,
	fail func(member int), traffic func() (out, in int64), reset func(), geo raid.Geometry) (wOver, rOver float64) {

	// Seed the stripe so RMW has old content, then measure one write.
	werr := errors.New("pending")
	dev.Write(0, parity.Sized(int(chunk)), func(e error) { werr = e })
	eng.Run()
	reset()
	dev.Write(0, parity.Sized(int(chunk)), func(e error) { werr = e })
	eng.Run()
	if werr != nil {
		panic(fmt.Sprintf("experiments: table1 write failed: %v", werr))
	}
	out, _ := traffic()
	wOver = float64(out) / float64(chunk)

	// Fail the member holding chunk 0 of stripe 0 and read it back.
	fail(geo.DataDrive(0, 0))
	reset()
	rerr := errors.New("pending")
	dev.Read(0, chunk, func(_ parity.Buffer, e error) { rerr = e })
	eng.Run()
	if rerr != nil {
		panic(fmt.Sprintf("experiments: table1 degraded read failed: %v", rerr))
	}
	_, in := traffic()
	rOver = float64(in) / float64(chunk)
	return wOver, rOver
}

// FormatTable1 renders the rows like the paper's Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Table 1: Comparison of 3 remote RAID architectures ==\n")
	fmt.Fprintf(&b, "%-16s %-15s %-14s %-18s %-14s %-14s\n",
		"", "Fault tolerance", "Hot spare", "Scaling", "Write overhead", "D-Read overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-15s %-14s %-18s %13.2fx %13.2fx\n",
			r.Architecture, r.FaultTolerance, r.HotSpare, r.Scaling, r.WriteOverhead, r.DReadOverhead)
	}
	return b.String()
}
