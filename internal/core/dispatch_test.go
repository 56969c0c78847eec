package core_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"draid/internal/backend"
	"draid/internal/cluster"
	"draid/internal/core"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/sim"
)

// realtimeArray builds a 4-drive RAID-5 volume on realtime loops and chan
// transport. Drive reads come from pooled buffers, so LeakCheck sees a
// payload nobody released.
func realtimeArray(t *testing.T) (*cluster.Cluster, *core.HostController) {
	t.Helper()
	cl, err := cluster.NewRealtime(cluster.RealtimeSpec{Targets: 4, DriveCapacity: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	h := cl.NewDRAID(core.Config{Geometry: raid.Geometry{Level: raid.Raid5, Width: 4, ChunkSize: chunkSize}})
	return cl, h
}

// TestCompletionQueuedBehindCrashIsReleased: a completion already in the
// host's inbox when the host crashes still has its payload — a pooled drive
// read buffer — released when its CPU slot comes round.
func TestCompletionQueuedBehindCrashIsReleased(t *testing.T) {
	cl, h := realtimeArray(t)
	handle := core.HostHandler(h)
	cl.Fab.RegisterVolume(core.HostID, h.Volume(), func(m core.Message) {
		handle(m) // queued for its CPU slot...
		h.Crash() // ...and the host dies before the slot runs
	})
	called := false
	cl.Rt.Call(func() { h.Read(0, chunkSize, func(parity.Buffer, error) { called = true }) })
	cl.Rt.Run()
	cl.Rt.Call(func() {
		if called {
			t.Error("a crashed host called back")
		}
	})
	if err := cl.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestCompletionQueuedAtCloseIsReleased: a completion in the host's inbox
// when the realtime bed closes is still applied as the loop drains, and its
// payload released.
func TestCompletionQueuedAtCloseIsReleased(t *testing.T) {
	cl, h := realtimeArray(t)
	handle := core.HostHandler(h)
	cl.Fab.RegisterVolume(core.HostID, h.Volume(), func(m core.Message) {
		handle(m)  // queued for its CPU slot...
		cl.Close() // ...and the bed closes before the slot runs
	})
	done := make(chan error, 1)
	cl.Rt.Call(func() { h.Read(0, chunkSize, func(b parity.Buffer, err error) { b.Release(); done <- err }) })
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the read queued at Close never completed")
	}
	if err := cl.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestIdleWriteQuiescesWithItsLastEvent: on the simulation the deadline timer
// is stopped when the last op finishes, so Run returns at the write's own
// last event, with no foreground event left live. The time and the event
// count are what the per-op deadline timers gave.
func TestIdleWriteQuiescesWithItsLastEvent(t *testing.T) {
	cl, h := testCluster(t, 5, raid.Raid5)
	mustWrite(t, cl, h, 4<<10, randBytes(1, 8<<10))
	if got, want := cl.Eng.Now(), sim.Time(115586); got != want {
		t.Fatalf("Run returned at %v, want %v", got, want)
	}
	if got := cl.Eng.Processed(); got != 25 {
		t.Fatalf("the write took %d events, want 25", got)
	}
	if n := cl.Eng.LiveFG(); n != 0 {
		t.Fatalf("%d foreground events live after the write", n)
	}
}

// TestTCPServerReleasesReceivedPayloads: over TCP a server's capsule payloads
// come from its endpoint's receive pool, so each must go back exactly once
// however the server disposes of it — a write's by its command record, once
// the drive write it lent the payload to has landed; a stale-epoch or
// fenced-out command's where it is dropped, before any record exists — or
// the closing leak check fails.
func TestTCPServerReleasesReceivedPayloads(t *testing.T) {
	cl, err := cluster.NewRealtime(cluster.RealtimeSpec{Targets: 3, DriveCapacity: 1 << 20, TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var mu sync.Mutex
	got := map[uint64]nvmeof.Status{}
	cl.Fab.Register(core.HostID, func(m core.Message) {
		mu.Lock()
		got[m.Cmd.ID] = m.Cmd.Status
		mu.Unlock()
		m.Payload.Release()
	})
	const vol, n = 1, 4 << 10
	data := randBytes(3, n)
	send := func(cmd nvmeof.Command, payload parity.Buffer) {
		cmd.NSID = vol
		cl.Rt.Call(func() { cl.Fab.Send(core.HostID, 0, cmd, payload) })
	}
	write := func(id uint64, epoch uint64, off int64) {
		send(nvmeof.Command{ID: id, Opcode: nvmeof.OpWrite, Epoch: epoch, Offset: off, Length: n}, parity.FromBytes(data))
	}
	fence := func(id uint64) { send(nvmeof.Command{ID: id, Opcode: nvmeof.OpFence, Epoch: 2}, parity.Buffer{}) }
	write(1, 2, 0)   // written; the server's epoch becomes 2
	write(2, 1, n)   // stale: rejected at admission
	fence(10)        // cuts off IDs below 10
	write(5, 2, 2*n) // fenced out: dropped
	write(11, 2, 3*n)
	cl.Rt.Run()

	want := map[uint64]nvmeof.Status{1: nvmeof.StatusSuccess, 2: nvmeof.StatusStaleEpoch, 10: nvmeof.StatusSuccess, 11: nvmeof.StatusSuccess}
	mu.Lock()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("completions %v, want %v", got, want)
	}
	mu.Unlock()
	drive := cl.Servers[0].Drive()
	for i, wrote := range []bool{true, false, false, true} {
		if landed := bytes.Equal(drive.PeekSync(int64(i)*n, n), data); landed != wrote {
			t.Errorf("write at %d: landed %v, want %v", int64(i)*n, landed, wrote)
		}
	}
	recv := cl.Fab.(backend.EndpointBufferAccounting)
	if st := recv.EndpointBufferStats(0); st.Gets != 4 {
		t.Errorf("server 0 received %d pooled payloads, want the 4 writes': %+v", st.Gets, st)
	}
	if err := cl.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}
