package core_test

import (
	"fmt"
	"strings"
	"testing"

	"draid/internal/cluster"
	"draid/internal/core"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/raid"
)

// exchangeBed drives the servers of a size-only simulated RAID-5 array
// straight from the host endpoint, one server exchange at a time: no host
// controller, so what an exchange allocates is the servers', the drives' and
// the fabric's.
type exchangeBed struct {
	cl    *cluster.Cluster
	geo   raid.Geometry
	id    uint64
	done  int // successful completions in
	union []nvmeof.SGE
	data  parity.Buffer
}

const exchangeWrite = 4 << 10

func newExchangeBed() *exchangeBed {
	spec := cluster.DefaultSpec()
	spec.Targets = 5
	spec.Elide = true
	e := &exchangeBed{
		cl:   cluster.New(spec),
		geo:  raid.Geometry{Level: raid.Raid5, Width: 5, ChunkSize: chunkSize},
		data: parity.Sized(exchangeWrite),
	}
	e.union = []nvmeof.SGE{{Off: e.geo.DriveOffset(0), Len: exchangeWrite}}
	e.cl.Fab.RegisterVolume(core.HostID, 0, e.complete)
	return e
}

func (e *exchangeBed) complete(m core.Message) {
	if m.Cmd.Status != nvmeof.StatusSuccess {
		panic(fmt.Sprintf("exchange %d: %v from %d", m.Cmd.ID, m.Cmd.Status, m.From))
	}
	e.done++
}

// rmw runs one read-modify-write exchange — PartialWrite to the data bdev,
// Parity to P, the data bdev's Peer to P — to its two completions.
func (e *exchangeBed) rmw() {
	e.id++
	base, p := e.geo.DriveOffset(0), core.NodeID(e.geo.PDrive(0))
	e.cl.Fab.Send(core.HostID, core.NodeID(e.geo.DataDrive(0, 0)), nvmeof.Command{
		ID: e.id, Opcode: nvmeof.OpPartialWrite, Subtype: nvmeof.SubRMW,
		Offset: base, Length: exchangeWrite, FwdOffset: base, FwdLength: exchangeWrite,
		NextDest: uint16(p), NextDest2: core.NoDest, SGL: e.union,
	}, e.data)
	e.cl.Fab.Send(core.HostID, p, nvmeof.Command{
		ID: e.id, Opcode: nvmeof.OpParity, Subtype: nvmeof.SubRMW,
		Offset: base, Length: exchangeWrite, WaitNum: 1, DataIdx: core.NoScale,
	}, parity.Buffer{})
	e.cl.Eng.Run()
}

// degradedRead runs one reconstruction of data chunk 1 reduced on P: a
// Reconstruction to each of the four survivors, three Peers, one completion.
func (e *exchangeBed) degradedRead() {
	e.id++
	base, p := e.geo.DriveOffset(0), e.geo.PDrive(0)
	for _, m := range []int{p, e.geo.DataDrive(0, 0), e.geo.DataDrive(0, 2), e.geo.DataDrive(0, 3)} {
		cmd := nvmeof.Command{
			ID: e.id, Opcode: nvmeof.OpReconstruction, Subtype: nvmeof.SubNoRead,
			Offset: base, Length: chunkSize, FwdOffset: base, FwdLength: chunkSize,
			NextDest: uint16(p), DataIdx: core.NoScale,
		}
		if m == p {
			cmd.WaitNum = 4
		}
		e.cl.Fab.Send(core.HostID, core.NodeID(m), cmd, parity.Buffer{})
	}
	e.cl.Eng.Run()
}

// TestServerExchangeAllocatesNothing pins the server's command records and
// reduction states and the simulated drive's op records: after warm-up, a
// whole RMW exchange and a whole degraded-read exchange allocate nothing — no
// closure per drive I/O, CPU slot or capsule anywhere on the path, and no
// reduceState. With a closure chain per drive I/O and CPU slot they allocated
// 28 and 35; with pooled records but a fresh reduceState each, 1.
func TestServerExchangeAllocatesNothing(t *testing.T) {
	e := newExchangeBed()
	for i := 0; i < 64; i++ {
		e.rmw()
		e.degradedRead()
	}
	if e.done != 64*3 {
		t.Fatalf("warm-up: %d completions, want %d", e.done, 64*3)
	}
	for _, c := range []struct {
		name    string
		run     func()
		replies int
	}{
		{"RMW exchange", e.rmw, 2},
		{"degraded-read exchange", e.degradedRead, 1},
	} {
		before := e.done
		if allocs := testing.AllocsPerRun(200, c.run); allocs > 0 {
			t.Errorf("%s allocates %.2f objects, want none", c.name, allocs)
		}
		if got, want := e.done-before, 201*c.replies; got != want {
			t.Errorf("%s: %d completions, want %d", c.name, got, want)
		}
	}
	if err := e.cl.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkServerExchange reports server exchanges per second of wall time
// on the size-only simulation, host controller excluded.
func BenchmarkServerExchange(b *testing.B) {
	for _, c := range []struct {
		name string
		run  func(*exchangeBed)
	}{
		{"rmw", (*exchangeBed).rmw},
		{"degraded-read", (*exchangeBed).degradedRead},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := newExchangeBed()
			for i := 0; i < 64; i++ {
				c.run(e)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.run(e)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "exchanges/s")
		})
	}
}

// TestHostIOAllocatesNothing is the host-side twin of
// TestServerExchangeAllocatesNothing: after warm-up, a 4 KiB read-modify-write
// through HostController.Write and a healthy read of two extents through
// HostController.Read allocate nothing on the size-only simulation — the I/O
// runs on pooled records and ops, its extents in the record's own slice, and
// the deadline timer is re-armed, not rebuilt. With a closure per op step, a
// map and sort per I/O and a runtime timer per arming they allocated 15 and
// 26. The records are counted: one never returned fails LeakCheck.
func TestHostIOAllocatesNothing(t *testing.T) {
	spec := cluster.DefaultSpec()
	spec.Targets = 5
	spec.Elide = true
	cl := cluster.New(spec)
	h := cl.NewDRAID(core.Config{Geometry: raid.Geometry{Level: raid.Raid5, Width: 5, ChunkSize: chunkSize}})
	data := parity.Sized(exchangeWrite)
	writes, reads := 0, 0
	onWrite := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		writes++
	}
	onRead := func(b parity.Buffer, err error) {
		if err != nil || b.Len() != exchangeWrite {
			t.Fatalf("read: %d bytes, %v", b.Len(), err)
		}
		reads++
	}
	write := func() { h.Write(exchangeWrite, data, onWrite); cl.Eng.Run() }
	read := func() { h.Read(chunkSize-exchangeWrite/2, exchangeWrite, onRead); cl.Eng.Run() } // chunks 0 and 1
	for i := 0; i < 64; i++ {
		write()
		read()
	}
	for _, c := range []struct {
		name string
		run  func()
		n    *int
	}{
		{"4 KiB RMW write", write, &writes},
		{"two-extent read", read, &reads},
	} {
		before := *c.n
		if allocs := testing.AllocsPerRun(200, c.run); allocs > 0 {
			t.Errorf("%s allocates %.2f objects, want none", c.name, allocs)
		}
		if got := *c.n - before; got != 201 {
			t.Errorf("%s: %d completions, want 201", c.name, got)
		}
	}
	if st := h.Stats(); st.RMWWrites != 64+201 {
		t.Errorf("%d RMW writes, want %d", st.RMWWrites, 64+201)
	}
	if err := cl.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	// A record taken and never returned is a leak LeakCheck reports.
	core.LeakExtentRead(h)
	if err := cl.LeakCheck(); err == nil || !strings.Contains(err.Error(), "1 extent read record(s) out") {
		t.Fatalf("LeakCheck = %v, want the leaked extent read record", err)
	}
}
