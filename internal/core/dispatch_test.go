package core_test

import (
	"testing"
	"time"

	"draid/internal/cluster"
	"draid/internal/core"
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
	cl.Rt.Call(func() { h.Read(0, chunkSize, func(_ parity.Buffer, err error) { done <- err }) })
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
