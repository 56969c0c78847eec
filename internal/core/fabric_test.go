package core_test

import (
	"testing"

	"draid/internal/cluster"
	"draid/internal/core"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/simnet"
)

func TestFabricSelfSendPanics(t *testing.T) {
	cl, _ := testCluster(t, 4, raid.Raid5)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	cl.Fabric.Send(1, 1, nvmeof.Command{}, parity.Buffer{})
}

func TestFabricNodeLookup(t *testing.T) {
	cl, _ := testCluster(t, 4, raid.Raid5)
	if cl.Fabric.Node(core.HostID) != cl.HostNode {
		t.Fatal("host node lookup wrong")
	}
	if cl.Fabric.Node(2) != cl.Targets[2] {
		t.Fatal("target node lookup wrong")
	}
	if cl.Fabric.HostNode() != cl.HostNode {
		t.Fatal("HostNode wrong")
	}
	if len(cl.Fabric.Targets()) != 4 {
		t.Fatal("Targets wrong")
	}
}

func TestFabricColocatedDeliveryIsLocal(t *testing.T) {
	cl, _ := colocatedCluster(t, 6, 2)
	// Members 0 and 1 share a node: a direct send between them must not
	// touch the NIC.
	before := cl.Targets[0].BytesOut() + cl.Targets[0].BytesIn()
	delivered := false
	cl.Fabric.Register(core.NodeID(1), func(m core.Message) { delivered = true })
	defer func() {
		// Restore the server controller's handler for other tests.
	}()
	cl.Fabric.Send(0, 1, nvmeof.Command{Opcode: nvmeof.OpPeer}, parity.Sized(1<<20))
	cl.Eng.Run()
	if !delivered {
		t.Fatal("co-located message not delivered")
	}
	after := cl.Targets[0].BytesOut() + cl.Targets[0].BytesIn()
	if after != before {
		t.Fatalf("co-located send consumed %d NIC bytes", after-before)
	}
}

func TestFabricColocatedDeliveryRespectsDownNode(t *testing.T) {
	cl, _ := colocatedCluster(t, 6, 2)
	delivered := false
	cl.Fabric.Register(core.NodeID(1), func(m core.Message) { delivered = true })
	cl.Targets[0].SetDown(true)
	cl.Fabric.Send(0, 1, nvmeof.Command{Opcode: nvmeof.OpPeer}, parity.Buffer{})
	cl.Eng.Run()
	if delivered {
		t.Fatal("message delivered on a down server")
	}
}

func TestFabricSharesConnectionsPerServerPair(t *testing.T) {
	cl, _ := colocatedCluster(t, 6, 2)
	// Members {0,1},{2,3},{4,5} live on 3 servers. Connections between any
	// member of server A and any member of server B must be the same
	// object (§5.5: one shared connection per destination).
	c02 := cl.Fabric.Connection(0, 2)
	c13 := cl.Fabric.Connection(1, 3)
	c03 := cl.Fabric.Connection(0, 3)
	if c02 == nil || c02 != c13 || c02 != c03 {
		t.Fatal("server-pair connections not shared")
	}
	if cl.Fabric.Connection(0, 1) != nil {
		t.Fatal("co-located members should have no connection")
	}
	// Host connections shared per server as well.
	if cl.Fabric.Connection(core.HostID, 0) != cl.Fabric.Connection(core.HostID, 1) {
		t.Fatal("host connection not shared for co-located members")
	}
}

func TestServerRejectsUnknownOpcode(t *testing.T) {
	cl, _ := testCluster(t, 4, raid.Raid5)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	cl.Fabric.Send(core.HostID, 0, nvmeof.Command{Opcode: nvmeof.Opcode(0x55)}, parity.Buffer{})
	cl.Eng.Run()
}

func TestServerReturnsErrorCompletionOnBadRange(t *testing.T) {
	cl, h := testCluster(t, 4, raid.Raid5)
	_ = h
	var status nvmeof.Status = 200
	cl.Fabric.RegisterVolume(core.HostID, 0, func(m core.Message) { status = m.Cmd.Status })
	cl.Fabric.Send(core.HostID, 0, nvmeof.Command{
		Opcode: nvmeof.OpRead, Offset: 1 << 60, Length: 4096,
	}, parity.Buffer{})
	cl.Eng.Run()
	if status != nvmeof.StatusError {
		t.Fatalf("status = %v, want error", status)
	}
}

func TestConnectionLookupSymmetry(t *testing.T) {
	cl, _ := testCluster(t, 5, raid.Raid5)
	var c1, c2 *simnet.Conn = cl.Fabric.Connection(2, 4), cl.Fabric.Connection(4, 2)
	if c1 == nil || c1 != c2 {
		t.Fatal("mesh connection lookup not symmetric")
	}
}

// TestFabricSendAllocatesNothing: once the fabric's send records, the
// network's flight records and the engine's slots are warm, a capsule sent
// and delivered costs no heap object — over a NIC, from the host, and between
// co-located bdevs.
func TestFabricSendAllocatesNothing(t *testing.T) {
	cl, _ := colocatedCluster(t, 6, 2)
	delivered := 0
	for _, id := range []core.NodeID{0, 1, 2} {
		cl.Fabric.Register(id, func(m core.Message) { delivered++ })
	}
	for _, c := range []struct {
		what     string
		from, to core.NodeID
	}{
		{"NIC path", 0, 2},
		{"host NIC path", core.HostID, 0},
		{"co-located path", 0, 1},
	} {
		delivered = 0
		if n := testing.AllocsPerRun(100, func() {
			for i := 0; i < 32; i++ {
				cl.Fabric.Send(c.from, c.to, nvmeof.Command{Opcode: nvmeof.OpPeer, Length: 4096}, parity.Sized(4096))
			}
			cl.Eng.Run()
		}); n != 0 {
			t.Errorf("%s: 32 capsules allocate %.1f objects, want 0", c.what, n)
		}
		if delivered != 101*32 {
			t.Errorf("%s: %d of %d capsules delivered", c.what, delivered, 101*32)
		}
	}
}

// BenchmarkFabricSend measures the simulated fabric's message path: a 4 KiB
// capsule from one target to another, 32 in flight, through send, both NIC
// pipes and delivery.
func BenchmarkFabricSend(b *testing.B) {
	spec := cluster.DefaultSpec()
	spec.Targets = 4
	cl := cluster.New(spec)
	cl.Fabric.Register(1, func(core.Message) {})
	cmd := nvmeof.Command{Opcode: nvmeof.OpPeer, Length: 4096}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Fabric.Send(0, 1, cmd, parity.Sized(4096))
		if i%32 == 31 {
			cl.Eng.Run()
		}
	}
	cl.Eng.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}
