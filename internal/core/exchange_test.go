package core_test

import (
	"fmt"
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

// TestServerExchangeAllocatesOnlyItsReduction pins the server's command
// records and the simulated drive's op records: after warm-up, a whole RMW
// exchange and a whole degraded-read exchange each allocate at most their
// reduceState — no closure per drive I/O, CPU slot or capsule anywhere on the
// path. With a closure chain per drive I/O and CPU slot they allocated 28
// and 35.
func TestServerExchangeAllocatesOnlyItsReduction(t *testing.T) {
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
		if allocs := testing.AllocsPerRun(200, c.run); allocs > 1 {
			t.Errorf("%s allocates %.2f objects, want at most its reduceState", c.name, allocs)
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
