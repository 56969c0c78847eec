package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"draid/internal/blockdev"
	"draid/internal/cluster"
	"draid/internal/core"
	"draid/internal/oracle"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/repair"
	"draid/internal/sim"
	"draid/internal/ssd"
)

// tortureDevice is the subset shared by dRAID and the baselines.
type tortureDevice interface {
	blockdev.Device
	SetFailed(member int, failed bool)
	FailedMembers() []int
}

// hostDevice reaches the device host() names for the oracle, on either
// backend: each op is issued on the host's loop and runs to quiescence.
func hostDevice(t *testing.T, cl *cluster.Cluster, host func() tortureDevice) oracle.Device {
	onLoop := func(start func(done func())) {
		finished, ok := false, false
		cl.Rt.Call(func() { start(func() { finished = true }) })
		cl.Rt.Run()
		if cl.Rt.Call(func() { ok = finished }); !ok {
			t.Fatal("op stalled: the runtime quiesced before it completed")
		}
	}
	return oracle.Device{
		Write: func(off int64, data []byte) (err error) {
			onLoop(func(done func()) { host().Write(off, parity.FromBytes(data), func(e error) { err = e; done() }) })
			return err
		},
		Read: func(off, n int64) (got []byte, err error) {
			onLoop(func(done func()) {
				host().Read(off, n, func(b parity.Buffer, e error) { got, err = b.Disown().Data(), e; done() })
			})
			return got, err
		},
		State: func() (s oracle.State) {
			cl.Rt.Call(func() { s = deviceState(host()) })
			return s
		},
		MediaErr:  blockdev.ErrMediaError,
		LeakCheck: func() error { cl.Rt.Run(); return cl.LeakCheck() },
		Fence: func() (err error) {
			if f, ok := host().(interface{ Fence(func(error)) }); ok {
				onLoop(func(done func()) { f.Fence(func(e error) { err = e; done() }) })
			}
			return err
		},
	}
}

// deviceState is the oracle's view of dev, read on the host's loop.
func deviceState(dev tortureDevice) (s oracle.State) {
	s.Failed = len(dev.FailedMembers())
	if h, ok := dev.(*core.HostController); ok {
		for _, lr := range h.LostRegions() {
			s.Lost = append(s.Lost, oracle.Span(lr))
		}
	}
	return s
}

// newOracle models the first size bytes of dev; a broken promise fails t.
func newOracle(t *testing.T, dev oracle.Device, geo raid.Geometry, size int64) *oracle.Oracle {
	o := oracle.New(dev, size, geo.StripeDataSize(), geo.Level.ParityCount())
	o.Report = func(v oracle.Violation) { t.Fatal(v) }
	return o
}

// runTorture drives a randomized mixed workload — concurrent reads, writes,
// and mid-run single-member failure/recovery — against an array, under the
// oracle: reads are compared when no overlapping write was in flight during
// their lifetime (RAID gives no ordering promises otherwise), and the final
// state is swept whole. tortureRecovery switches the mid-run failure to the
// paper's fail-stop scenario: the victim node simply dies — nobody calls
// SetFailed — and the supervision stack must detect the failure via
// heartbeats and rebuild onto a hot spare while the workload keeps running.
// After the run, write-hole stripes are rewritten (the resync a real
// deployment would do from the write-intent bitmap) and the final sweep
// excludes NOTHING.
type tortureRecovery struct {
	sup *repair.Supervisor
	log *repair.Log
}

func runTorture(t *testing.T, seed int64, level raid.Level, targets int, dev tortureDevice, cl *cluster.Cluster, failDrive bool, rec *tortureRecovery) {
	t.Helper()
	geo := raid.Geometry{Level: level, Width: targets, ChunkSize: 16 << 10}
	size := geo.VirtualSize(2 << 20) // small working set → heavy stripe reuse
	rng := rand.New(rand.NewSource(seed))
	d := hostDevice(t, cl, func() tortureDevice { return dev })
	// While the workload runs, reads complete — and the oracle asks for the
	// device state — on the host's loop, where Call must not be used.
	onLoop, offLoop := false, d.State
	d.State = func() oracle.State {
		if onLoop {
			return deviceState(dev)
		}
		return offLoop()
	}
	if rec != nil {
		state := d.State
		d.State = func() oracle.State {
			s := state()
			for _, e := range rec.log.Events() {
				s.Events = append(s.Events, e)
			}
			return s
		}
	}
	o := newOracle(t, d, geo, size)

	pending := 0
	victimDown := false
	var issue func()
	ops := 200
	issue = func() {
		if ops == 0 {
			return
		}
		ops--
		pending++
		off := rng.Int63n(size - 64<<10)
		n := int64(1 + rng.Intn(48<<10))
		if rng.Float64() < 0.5 {
			data := make([]byte, n)
			rng.Read(data)
			end := o.BeginWrite(off, data)
			// In detection mode there is a window where the victim is dead
			// but the controller does not know yet: writes started in it can
			// partially apply (data to the dead member vanishes while parity
			// deltas land), the same write hole as a failure mid-flight.
			if victimDown && rec != nil && rec.sup.Detector().FailTransitions == 0 {
				o.Tear(off, n)
			}
			dev.Write(off, parity.FromBytes(data), func(err error) {
				if err != nil {
					t.Errorf("torture write at %d+%d: %v", off, n, err)
				}
				end(err)
				pending--
				issue()
			})
			return
		}
		end := o.BeginRead(off, n)
		dev.Read(off, n, func(b parity.Buffer, err error) {
			end(b.Data(), err)
			b.Release()
			pending--
			issue()
		})
	}
	// Everything below runs on the host's loop until Run returns: on the
	// realtime backend completions arrive there, so rng, pending and the
	// oracle are touched from that goroutine alone, and a violation is
	// reported with t.Error, which (unlike t.Fatal) may run off the test's
	// goroutine.
	o.Report = func(v oracle.Violation) { t.Error(v) }
	victim := 0
	onLoop = true
	cl.Rt.Call(func() {
		for i := 0; i < 8; i++ {
			issue()
		}
		// Mid-run failure and (optionally) recovery of a random member.
		victim = rng.Intn(targets)
		if !failDrive {
			return
		}
		cl.Rt.After(2*sim.Millisecond, func() {
			cl.FailTarget(victim)
			victimDown = true
			if rec == nil {
				dev.SetFailed(victim, true)
			}
			// With rec set, NOBODY tells the controller: the failure
			// detector must notice on its own. Stripes with a write in
			// flight at the instant of member failure are RAID's classic
			// write hole: the failed chunk's untouched bytes are
			// unrecoverable without a journal (the paper provides no
			// transactional semantics, §5.4 — the retry restores parity
			// CONSISTENCY, not old data).
			o.TearInFlight()
			o.Cut()
		})
	})
	cl.Rt.Run()
	onLoop = false
	if pending != 0 {
		t.Fatalf("torture deadlock: %d ops pending", pending)
	}
	checked := o.Checked
	if checked == 0 {
		t.Fatal("torture validated no reads")
	}

	if rec != nil && failDrive {
		// Detection and rebuild must both have completed during the run.
		if got := rec.sup.Detector().FailTransitions; got != 1 {
			t.Fatalf("fail transitions = %d, want 1 (automatic detection of victim %d)", got, victim)
		}
		if st := rec.sup.Rebuilder().Status(); st.Active {
			t.Fatalf("rebuild still active after drain: %+v", st)
		}
		rebuildDone := false
		for _, e := range rec.log.Events() {
			if e.Kind == "rebuild-done" && e.Member == victim {
				rebuildDone = true
			}
		}
		if !rebuildDone {
			t.Fatalf("no rebuild-done event for victim %d; events:\n%v", victim, rec.log.Events())
		}
		if got := dev.FailedMembers(); len(got) != 0 {
			t.Fatalf("failed members after rebuild = %v, want none (spare promoted)", got)
		}
	}
	// Resync the write hole — full-stripe writes regenerate data, parity and
	// any rebuilt chunk together — and read every byte back (degraded reads
	// reconstruct the victim's chunks); then nothing may be left behind.
	o.Heal(func(n int64) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	})
	o.Quiesce()
	t.Logf("torture(seed=%d): %d reads validated, victimFailed=%v", seed, checked, failDrive)
}

func tortureCluster(t *testing.T, targets int, seed int64, spares int) *cluster.Cluster {
	t.Helper()
	spec := cluster.DefaultSpec()
	spec.Targets = targets
	spec.Seed = seed
	spec.Spares = spares
	drv := ssd.DefaultSpec()
	drv.Capacity = 2 << 20
	spec.Drive = &drv
	return cluster.New(spec)
}

func TestTortureDRAID(t *testing.T) {
	for _, tc := range []struct {
		level   raid.Level
		targets int
		fail    bool
	}{
		{raid.Raid5, 5, false},
		{raid.Raid5, 5, true},
		{raid.Raid5, 8, true},
		{raid.Raid6, 6, false},
		{raid.Raid6, 6, true},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%v-w%d-fail%v-seed%d", tc.level, tc.targets, tc.fail, seed)
			t.Run(name, func(t *testing.T) {
				cl := tortureCluster(t, tc.targets, seed, 0)
				h := cl.NewDRAID(core.Config{
					Geometry: raid.Geometry{Level: tc.level, Width: tc.targets, ChunkSize: 16 << 10},
					Deadline: 50 * sim.Millisecond,
				})
				runTorture(t, seed, tc.level, tc.targets, h, cl, tc.fail, nil)
			})
		}
	}
}

// TestTortureRebuild is the end-to-end recovery torture: a member crashes
// mid-workload with NO SetFailed call, the heartbeat detector escalates it to
// failed, the supervisor rebuilds it onto a hot spare (throttled, under
// continued live traffic), and — after the write-hole stripes are resynced —
// the full array reads back byte-exact with zero exclusions.
func TestTortureRebuild(t *testing.T) {
	for _, tc := range []struct {
		level   raid.Level
		targets int
	}{
		{raid.Raid5, 5},
		{raid.Raid6, 6},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%v-w%d-seed%d", tc.level, tc.targets, seed)
			t.Run(name, func(t *testing.T) {
				cl := tortureCluster(t, tc.targets, seed, 1)
				h := cl.NewDRAID(core.Config{
					Geometry: raid.Geometry{Level: tc.level, Width: tc.targets, ChunkSize: 16 << 10},
					Deadline: 10 * sim.Millisecond,
				})
				log := repair.NewLog(cl.Rt)
				sup := repair.NewSupervisor(cl.Rt, h, repair.Config{
					Detector: repair.DetectorConfig{
						HeartbeatEvery:   sim.Millisecond,
						HeartbeatTimeout: 500 * sim.Microsecond,
					},
					Rebuild: repair.RebuilderConfig{RateMBps: 400},
					Spares:  cl.SpareIDs(),
				}, nil, log)
				sup.Start()
				defer sup.Stop()
				runTorture(t, seed, tc.level, tc.targets, h, cl, true, &tortureRecovery{sup: sup, log: log})
			})
		}
	}
}

// TestTortureHostFailover crashes the CONTROLLER (not a drive) mid-write:
// the replacement adopts the array, resyncs exactly the write-intent-dirty
// stripes, and the array then passes a full parity audit plus a live
// write/read roundtrip.
func TestTortureHostFailover(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cl := tortureCluster(t, 5, seed, 0)
			geo := raid.Geometry{Level: raid.Raid5, Width: 5, ChunkSize: 16 << 10}
			h := cl.NewDRAID(core.Config{Geometry: geo, Deadline: 10 * sim.Millisecond})

			// Settle a base image, then start a burst of writes and crash
			// partway through them.
			rng := rand.New(rand.NewSource(seed))
			base := make([]byte, geo.StripeDataSize()*8)
			rng.Read(base)
			mustWrite(t, cl, h, 0, base)

			for i := 0; i < 6; i++ {
				off := int64(rng.Intn(8)) * geo.StripeDataSize()
				data := make([]byte, geo.StripeDataSize()/2)
				rng.Read(data)
				h.Write(off, parity.FromBytes(data), func(error) {})
			}
			cl.Eng.RunFor(30 * sim.Microsecond)
			dirty := h.DirtyStripes()
			if len(dirty) == 0 {
				t.Fatal("test setup: nothing in flight at crash time")
			}
			h.Crash()
			cl.Eng.Run()

			h2 := cl.NewDRAID(core.Config{Geometry: geo, Deadline: 10 * sim.Millisecond})
			adopted := h2.Adopt(h)
			if len(adopted) != len(dirty) {
				t.Fatalf("adopted %d dirty stripes, want %d", len(adopted), len(dirty))
			}
			ferr := fmt.Errorf("not done")
			repair.Failover(cl.Rt, h2, adopted, func(err error) { ferr = err })
			cl.Eng.Run()
			if ferr != nil {
				t.Fatalf("failover resync: %v", ferr)
			}
			if got := h2.Stats().Resyncs; got != int64(len(adopted)) {
				t.Fatalf("resyncs = %d, want exactly %d (only write-intent stripes)", got, len(adopted))
			}
			for _, st := range adopted {
				verifyStripeParity(t, cl, h2, st)
			}
			// Service resumes on the replacement.
			fresh := make([]byte, geo.StripeDataSize())
			rng.Read(fresh)
			mustWrite(t, cl, h2, 0, fresh)
			if got := mustRead(t, cl, h2, 0, geo.StripeDataSize()); !bytes.Equal(got, fresh) {
				t.Fatal("post-failover roundtrip returned wrong bytes")
			}
		})
	}
}

// TestTortureBaselines runs the host-centric comparison systems — the same
// engine under the SPDK and Linux reduce profiles — through the torture
// workload on both backends, each ending on the oracle's leak check.
func TestTortureBaselines(t *testing.T) {
	geo := raid.Geometry{Level: raid.Raid5, Width: 5, ChunkSize: 16 << 10}
	for _, tc := range []struct {
		name    string
		profile core.Reduce
	}{
		{"spdk", core.SPDK()},
		{"linux", core.Linux()},
	} {
		for _, backend := range []string{"sim", "realtime"} {
			for _, fail := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s-%s-fail%v", tc.name, backend, fail), func(t *testing.T) {
					cl := tortureCluster(t, 5, 7, 0)
					if backend == "realtime" {
						var err error
						if cl, err = cluster.NewRealtime(cluster.RealtimeSpec{Targets: 5, Seed: 7, DriveCapacity: 2 << 20}); err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { cl.Close() })
					}
					h := cl.NewDRAID(core.Config{Geometry: geo, Reduce: tc.profile, Deadline: 50 * sim.Millisecond})
					runTorture(t, 7, raid.Raid5, 5, h, cl, fail, nil)
				})
			}
		}
	}
}
