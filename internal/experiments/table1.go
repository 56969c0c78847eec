package experiments

import (
	"errors"
	"fmt"
	"strings"

	"draid"
	"draid/internal/parity"
	"draid/internal/raid"
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
		func() (float64, float64) { return singleMachineOverheads(geo, o.Seed) },
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

// overheadProbe is one architecture as Table 1 measures it: single-chunk I/O
// at offset 0, each run to completion, and the client's NIC counters.
type overheadProbe struct {
	write, read func() error
	fail        func(member int)
	traffic     func() (out, in int64)
	reset       func()
}

// singleMachineOverheads measures the single-machine architecture: the
// controller offloaded onto the one storage server that holds all of its
// drives, its client one network hop away.
func singleMachineOverheads(geo raid.Geometry, seed int64) (wOver, rOver float64) {
	arr, err := draid.New(draid.Config{
		Drives: geo.Width, ChunkSize: geo.ChunkSize, DrivesPerServer: geo.Width,
		OffloadController: true, SizeOnly: true, Seed: seed,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: table1 single machine: %v", err))
	}
	defer arr.Close()
	return measureOverheads(overheadProbe{
		write: func() error { return arr.WriteSync(0, make([]byte, geo.ChunkSize)) },
		read: func() error {
			_, err := arr.ReadSync(0, geo.ChunkSize)
			return err
		},
		fail: arr.FailDrive, traffic: arr.HostTraffic, reset: arr.ResetTraffic,
	}, geo)
}

// clusterOverheads measures one of the two fabric-attached architectures at
// the simulated host NIC.
func clusterOverheads(sys System, geo raid.Geometry, seed int64) (wOver, rOver float64) {
	dev, cl := Build(Setup{System: sys, Targets: geo.Width, Level: geo.Level, ChunkSize: geo.ChunkSize, Seed: seed})
	run := func(issue func(done func(error))) error {
		err := errors.New("pending")
		cl.Rt.Call(func() { issue(func(e error) { err = e }) })
		cl.Rt.Run()
		return err
	}
	return measureOverheads(overheadProbe{
		write: func() error {
			return run(func(done func(error)) { dev.Write(0, parity.Sized(int(geo.ChunkSize)), done) })
		},
		read: func() error {
			return run(func(done func(error)) {
				dev.Read(0, geo.ChunkSize, func(b parity.Buffer, e error) {
					b.Release()
					done(e)
				})
			})
		},
		fail:    func(m int) { failMember(cl, dev, m) },
		traffic: cl.TotalHostBytes, reset: cl.ResetTraffic,
	}, geo)
}

// measureOverheads performs one single-chunk RMW write and one degraded
// single-chunk read and reports client-side traffic per user byte.
func measureOverheads(p overheadProbe, geo raid.Geometry) (wOver, rOver float64) {
	// Seed the stripe so RMW has old content, then measure one write.
	if err := p.write(); err != nil {
		panic(fmt.Sprintf("experiments: table1 seeding write failed: %v", err))
	}
	p.reset()
	if err := p.write(); err != nil {
		panic(fmt.Sprintf("experiments: table1 write failed: %v", err))
	}
	out, _ := p.traffic()
	wOver = float64(out) / float64(geo.ChunkSize)

	// Fail the member holding chunk 0 of stripe 0 and read it back.
	p.fail(geo.DataDrive(0, 0))
	p.reset()
	if err := p.read(); err != nil {
		panic(fmt.Sprintf("experiments: table1 degraded read failed: %v", err))
	}
	_, in := p.traffic()
	rOver = float64(in) / float64(geo.ChunkSize)
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
