package repair_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"draid/internal/blockdev"
	"draid/internal/cluster"
	"draid/internal/core"
	"draid/internal/parity"
	"draid/internal/placement"
	"draid/internal/raid"
	"draid/internal/repair"
	"draid/internal/sim"
	"draid/internal/ssd"
)

const chunkSize = 64 << 10

// testCluster builds a small array with hot spares: 64 KB chunks, small
// drives so full-device rebuilds stay fast, a 5 ms op deadline.
func testCluster(t *testing.T, targets, spares int, level raid.Level) (*cluster.Cluster, *core.HostController) {
	t.Helper()
	spec := cluster.DefaultSpec()
	spec.Targets = targets
	spec.Spares = spares
	drv := ssd.DefaultSpec()
	drv.Capacity = 4 << 20
	spec.Drive = &drv
	cl := cluster.New(spec)
	h := cl.NewDRAID(core.Config{
		Geometry: raid.Geometry{Level: level, Width: targets, ChunkSize: chunkSize},
		Deadline: 5 * sim.Millisecond,
	})
	return cl, h
}

func mustWrite(t *testing.T, cl *cluster.Cluster, h *core.HostController, off int64, data []byte) {
	t.Helper()
	doneErr := errors.New("not done")
	h.Write(off, parity.FromBytes(data), func(err error) { doneErr = err })
	cl.Rt.Run()
	if doneErr != nil {
		t.Fatalf("write at %d (%d bytes): %v", off, len(data), doneErr)
	}
}

func mustRead(t *testing.T, cl *cluster.Cluster, h *core.HostController, off, n int64) []byte {
	t.Helper()
	var out []byte
	doneErr := errors.New("not done")
	h.Read(off, n, func(b parity.Buffer, err error) {
		doneErr = err
		out = b.Disown().Data()
	})
	cl.Rt.Run()
	if doneErr != nil {
		t.Fatalf("read at %d (%d bytes): %v", off, n, doneErr)
	}
	return out
}

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// --- Detector state machine -------------------------------------------------

func detectorFixture(t *testing.T) (*cluster.Cluster, *core.HostController, *repair.Detector, *[]int) {
	t.Helper()
	cl, h := testCluster(t, 5, 0, raid.Raid5)
	var failed []int
	det := repair.NewDetector(cl.Rt, hostOf(h), repair.DetectorConfig{
		FailAfter: 3,
		Grace:     10 * sim.Millisecond,
	}, nil, func(m int) { failed = append(failed, m) })
	return cl, h, det, &failed
}

func TestDetectorStrikesEscalate(t *testing.T) {
	cl, _, det, failed := detectorFixture(t)

	det.ObserveFault(2, false)
	if got := det.State(2); got != repair.Suspect {
		t.Fatalf("after 1 strike: state = %v, want suspect", got)
	}
	det.ObserveFault(2, false)
	if got := det.State(2); got != repair.Suspect {
		t.Fatalf("after 2 strikes: state = %v, want suspect", got)
	}
	det.ObserveFault(2, false)
	if got := det.State(2); got != repair.Failed {
		t.Fatalf("after 3 strikes: state = %v, want failed", got)
	}
	// onFail is deferred through the engine, exactly once.
	cl.Rt.Run()
	if len(*failed) != 1 || (*failed)[0] != 2 {
		t.Fatalf("onFail calls = %v, want [2]", *failed)
	}
	// Further evidence against a failed member is a no-op.
	det.ObserveFault(2, true)
	cl.Rt.Run()
	if len(*failed) != 1 {
		t.Fatalf("onFail fired again on post-failure evidence: %v", *failed)
	}
	if det.FailTransitions != 1 || det.SuspectTransitions != 1 {
		t.Fatalf("transitions = %d suspect / %d fail, want 1/1",
			det.SuspectTransitions, det.FailTransitions)
	}
}

func TestDetectorConfirmedEscalatesImmediately(t *testing.T) {
	cl, _, det, failed := detectorFixture(t)
	det.ObserveFault(1, true)
	if got := det.State(1); got != repair.Failed {
		t.Fatalf("after confirmed fault: state = %v, want failed", got)
	}
	cl.Rt.Run()
	if len(*failed) != 1 || (*failed)[0] != 1 {
		t.Fatalf("onFail calls = %v, want [1]", *failed)
	}
}

func TestDetectorOKRepairsSuspicion(t *testing.T) {
	_, _, det, _ := detectorFixture(t)
	det.ObserveFault(0, false)
	det.ObserveFault(0, false)
	if det.State(0) != repair.Suspect {
		t.Fatalf("state = %v, want suspect", det.State(0))
	}
	det.ObserveOK(0)
	if det.State(0) != repair.Suspect {
		t.Fatalf("one OK cleared two strikes: state = %v", det.State(0))
	}
	det.ObserveOK(0)
	if det.State(0) != repair.Healthy {
		t.Fatalf("state = %v, want healthy after matching OKs", det.State(0))
	}
}

func TestDetectorGraceDecaysStrikes(t *testing.T) {
	cl, _, det, failed := detectorFixture(t)
	det.ObserveFault(3, false)
	det.ObserveFault(3, false)
	// A quiet window longer than Grace forgets the old strikes.
	cl.Rt.RunFor(20 * sim.Millisecond)
	det.ObserveFault(3, false)
	if got := det.State(3); got != repair.Suspect {
		t.Fatalf("stale strikes still counted: state = %v, want suspect", got)
	}
	cl.Rt.Run()
	if len(*failed) != 0 {
		t.Fatalf("member failed despite grace decay: %v", *failed)
	}
}

// --- Automatic detection via heartbeats ------------------------------------

// A crashed node (observably down) is confirmed by the first probe deadline:
// no SetFailed from outside, detection is fully automatic.
func TestHeartbeatDetectsDownNode(t *testing.T) {
	cl, h := testCluster(t, 5, 0, raid.Raid5)
	var failed []int
	det := repair.NewDetector(cl.Rt, hostOf(h), repair.DetectorConfig{
		HeartbeatEvery:   sim.Millisecond,
		HeartbeatTimeout: 500 * sim.Microsecond,
	}, nil, func(m int) { failed = append(failed, m) })
	h.SetHealth(det)
	det.Start()
	defer det.Stop()

	cl.FailTarget(3) // node down + drive dead; nobody tells the host
	cl.Rt.RunFor(5 * sim.Millisecond)

	if got := det.State(3); got != repair.Failed {
		t.Fatalf("state = %v, want failed (automatic detection)", got)
	}
	if len(failed) != 1 || failed[0] != 3 {
		t.Fatalf("onFail calls = %v, want [3]", failed)
	}
	for m := 0; m < 5; m++ {
		if m != 3 && det.State(m) != repair.Healthy {
			t.Fatalf("healthy member %d reported %v", m, det.State(m))
		}
	}
}

// An asymmetric fabric fault — host→target capsules silently dropped while
// the reverse direction still delivers — is indistinguishable from a dead
// member to the host: probes go unanswered, strikes accumulate, and the
// member fails after FailAfter probe periods (unconfirmed, since the node is
// not observably down).
func TestHeartbeatDetectsAsymmetricDrop(t *testing.T) {
	cl, h := testCluster(t, 5, 0, raid.Raid5)
	var failed []int
	det := repair.NewDetector(cl.Rt, hostOf(h), repair.DetectorConfig{
		FailAfter:        3,
		HeartbeatEvery:   sim.Millisecond,
		HeartbeatTimeout: 500 * sim.Microsecond,
	}, nil, func(m int) { failed = append(failed, m) })
	h.SetHealth(det)
	det.Start()
	defer det.Stop()

	conn := cl.Fabric.Connection(core.HostID, core.NodeID(2))
	conn.InjectDropDirection(cl.HostNode, 1.0) // host→target black hole

	cl.Rt.RunFor(2 * sim.Millisecond)
	if got := det.State(2); got != repair.Suspect {
		t.Fatalf("mid-escalation state = %v, want suspect", got)
	}
	cl.Rt.RunFor(8 * sim.Millisecond)
	if got := det.State(2); got != repair.Failed {
		t.Fatalf("state = %v, want failed after repeated missed heartbeats", got)
	}
	if len(failed) != 1 || failed[0] != 2 {
		t.Fatalf("onFail calls = %v, want [2]", failed)
	}
}

// A short transient drop burst makes the member suspect; once delivery
// resumes, successful probes repair it back to healthy without escalation.
func TestTransientDropRecoversToHealthy(t *testing.T) {
	cl, h := testCluster(t, 5, 0, raid.Raid5)
	det := repair.NewDetector(cl.Rt, hostOf(h), repair.DetectorConfig{
		FailAfter:        4,
		HeartbeatEvery:   sim.Millisecond,
		HeartbeatTimeout: 500 * sim.Microsecond,
	}, nil, func(m int) { t.Errorf("member %d escalated to failed", m) })
	h.SetHealth(det)
	det.Start()
	defer det.Stop()

	conn := cl.Fabric.Connection(core.HostID, core.NodeID(1))
	conn.InjectDrop(1.0)
	cl.Rt.RunFor(2500 * sim.Microsecond) // ~2 missed probes
	if got := det.State(1); got != repair.Suspect {
		t.Fatalf("state = %v, want suspect during the drop burst", got)
	}
	conn.InjectDrop(0)
	cl.Rt.RunFor(5 * sim.Millisecond)
	if got := det.State(1); got != repair.Healthy {
		t.Fatalf("state = %v, want healthy after delivery resumed", got)
	}
}

// --- Hot-spare rebuild ------------------------------------------------------

// seedDevice fills the whole virtual device with deterministic bytes and
// returns the reference image.
func seedDevice(t *testing.T, cl *cluster.Cluster, h *core.HostController, seed int64) []byte {
	t.Helper()
	ref := randBytes(seed, int(h.Size()))
	const step = 1 << 20
	for off := int64(0); off < h.Size(); off += step {
		end := off + step
		if end > h.Size() {
			end = h.Size()
		}
		mustWrite(t, cl, h, off, ref[off:end])
	}
	return ref
}

// planRebuild plans the rebuild of a failed drive onto the cluster's first
// spare.
func planRebuild(t *testing.T, cl *cluster.Cluster, h *core.HostController, drive int) core.Repair {
	t.Helper()
	plan, err := h.PlanRebuild(drive, 0, core.NewSparePool(cl.SpareIDs()).Claim)
	if err != nil {
		t.Fatalf("plan rebuild of drive %d: %v", drive, err)
	}
	return plan
}

// newRebuilder builds a rebuilder bound to h; planned hands it a plan made
// beforehand.
func newRebuilder(cl *cluster.Cluster, h *core.HostController, cfg repair.RebuilderConfig, name string) *repair.Rebuilder {
	return repair.NewRebuilder(cl.Rt, hostOf(h), cfg, nil, nil, name)
}

func hostOf(h *core.HostController) func() *core.HostController {
	return func() *core.HostController { return h }
}

func planned(p core.Repair) func(*core.HostController) (core.Repair, error) {
	return func(*core.HostController) (core.Repair, error) { return p, nil }
}

func TestRebuildCopiesMemberToSpare(t *testing.T) {
	cl, h := testCluster(t, 5, 1, raid.Raid5)
	ref := seedDevice(t, cl, h, 42)

	const victim = 1
	cl.FailTarget(victim)
	h.SetFailed(victim, true)

	reb := newRebuilder(cl, h, repair.RebuilderConfig{}, "rebuild")
	rebErr := errors.New("not done")
	reb.Run(planned(planRebuild(t, cl, h, victim)), func(err error) { rebErr = err })
	cl.Rt.Run()
	if rebErr != nil {
		t.Fatalf("rebuild: %v", rebErr)
	}
	if st := reb.Status(); st.Active {
		t.Fatalf("rebuild still active after completion: %+v", st)
	}
	if got := h.FailedMembers(); len(got) != 0 {
		t.Fatalf("failed members after rebuild = %v, want none", got)
	}
	if got := h.Stats().RebuiltStripes; got != reb.Status().Total {
		t.Fatalf("RebuiltStripes = %d, want %d", got, reb.Status().Total)
	}
	// Full byte-exact sweep. The victim node is still down: every read of a
	// rebuilt chunk must come from the promoted spare.
	got := mustRead(t, cl, h, 0, h.Size())
	if !bytes.Equal(got, ref) {
		t.Fatalf("device image diverged after rebuild onto spare")
	}
}

func TestRebuildThrottleRate(t *testing.T) {
	elapsed := func(rateMBps float64) sim.Time {
		cl, h := testCluster(t, 5, 1, raid.Raid5)
		seedDevice(t, cl, h, 7)
		cl.FailTarget(2)
		h.SetFailed(2, true)
		reb := newRebuilder(cl, h, repair.RebuilderConfig{RateMBps: rateMBps}, "rebuild")
		start := cl.Rt.Now()
		rebErr := errors.New("not done")
		reb.Run(planned(planRebuild(t, cl, h, 2)), func(err error) { rebErr = err })
		cl.Rt.Run()
		if rebErr != nil {
			t.Fatalf("rebuild at %v MB/s: %v", rateMBps, rebErr)
		}
		return cl.Rt.Now() - start
	}

	unthrottled := elapsed(0)
	throttled := elapsed(100)

	// 64 rebuilt chunks at 100 MB/s: at least 63 inter-stripe gaps of
	// chunkSize/rate virtual time each.
	stripes := int64(4<<20) / chunkSize
	minThrottled := sim.Time(float64(stripes-1) * float64(chunkSize) / (100 * 1e6 / 1e9))
	if throttled < minThrottled {
		t.Fatalf("throttled rebuild took %v, floor is %v", throttled, minThrottled)
	}
	if unthrottled >= throttled {
		t.Fatalf("unthrottled (%v) not faster than throttled (%v)", unthrottled, throttled)
	}
}

// --- Aborted relocation ------------------------------------------------------

// A relocation that fails mid-walk must leave nothing behind: the slot it
// reserved in the layout is released, its stripe write lock is dropped, the
// chunk stays where it was, and the walk stops there. The target of the
// third move fail-stops (the controller is not told), so the move's write
// times out after its read succeeded.
func TestAbortedRelocationLeavesNothingBehind(t *testing.T) {
	spec := cluster.DefaultSpec()
	spec.Targets = 8
	drv := ssd.DefaultSpec()
	drv.Capacity = 2 << 20
	spec.Drive = &drv
	cl := cluster.New(spec)
	h := cl.NewDRAID(core.Config{
		Geometry: raid.Geometry{Level: raid.Raid5, Width: 4, ChunkSize: chunkSize},
		Deadline: 5 * sim.Millisecond,
		LayoutFor: func(base, extent int64) placement.Layout {
			l, err := placement.NewDeclustered(base, extent, chunkSize, 4, 8, 17)
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
	})
	dyn := h.Layout().(placement.Dynamic)
	ref := seedDevice(t, cl, h, 31)

	const leaving, failAt = 0, 2
	plan, err := h.PlanDrain(leaving)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Items <= failAt+1 {
		t.Fatalf("test setup: drive %d holds only %d chunks", leaving, plan.Items)
	}
	relocate := plan.Do
	plan.Do = func(h *core.HostController, i int64, cb func(error)) {
		if i == failAt {
			// Slot choice is a pure function of layout state: claim and
			// release to learn where this move is about to write.
			to, ok := dyn.ClaimSpare(plan.Stripe(i), nil)
			if !ok {
				t.Fatalf("test setup: stripe %d has no idle slot", plan.Stripe(i))
			}
			dyn.Release(plan.Stripe(i), to)
			cl.FailTarget(to)
		}
		relocate(h, i, cb)
	}
	reb := newRebuilder(cl, h, repair.RebuilderConfig{RateMBps: 400}, "rebalance")
	walkErr := errors.New("not done")
	reb.Run(planned(plan), func(err error) { walkErr = err })
	cl.Rt.Run()

	if !errors.Is(walkErr, blockdev.ErrTimeout) {
		t.Fatalf("walk error = %v, want the failed move's write timeout", walkErr)
	}
	if st := reb.Status(); st.Active || st.Done != failAt || st.Total != plan.Items {
		t.Fatalf("walk status after abort = %+v, want stopped at %d/%d", st, failAt, plan.Items)
	}
	if n := dyn.Reserved(); n != 0 {
		t.Fatalf("%d layout slot(s) still reserved after the aborted move", n)
	}
	if err := h.Quiescent(); err != nil {
		t.Fatalf("host after the aborted move: %v", err)
	}
	stripe := plan.Stripe(failAt)
	if m := dyn.Member(stripe, leaving); m < 0 {
		t.Fatalf("stripe %d lost its chunk on drive %d although the move failed", stripe, leaving)
	}
	// The stripe lock was dropped and the chunk is where the layout says: the
	// stripe still takes writes and every byte still reads back.
	stripeBytes := h.Geometry().StripeDataSize()
	fresh := randBytes(32, int(stripeBytes))
	mustWrite(t, cl, h, stripe*stripeBytes, fresh)
	copy(ref[stripe*stripeBytes:], fresh)
	if got := mustRead(t, cl, h, 0, h.Size()); !bytes.Equal(got, ref) {
		t.Fatal("device image diverged after the aborted drain")
	}
}

// --- Scrubber on the walker ---------------------------------------------------

// Stop ends a periodic pass mid-walk: the stripe in flight finishes, no
// further stripe starts, and no further pass is scheduled.
func TestScrubberStopEndsPassMidWalk(t *testing.T) {
	cl, h := testCluster(t, 5, 0, raid.Raid5)
	seedDevice(t, cl, h, 3)
	scr := repair.NewScrubber(cl.Rt, hostOf(h), repair.ScrubberConfig{
		Interval: sim.Millisecond,
		RateMBps: 200, // 5 × 64 KiB per stripe: one stripe every ~1.6 ms
	}, nil, nil)
	scr.Start()
	cl.Rt.RunFor(10 * sim.Millisecond)
	mid := scr.Status()
	if !mid.Active || mid.ScrubbedStripes == 0 || mid.ScrubbedStripes >= mid.TotalStripes {
		t.Fatalf("test setup: pass not mid-walk after 10 ms: %+v", mid)
	}
	scr.Stop()
	cl.Rt.RunFor(50 * sim.Millisecond)
	st := scr.Status()
	if st.Active || st.Passes != 1 {
		t.Fatalf("after Stop: %+v, want the pass ended and none following", st)
	}
	if st.ScrubbedStripes > mid.ScrubbedStripes+1 {
		t.Fatalf("pass kept walking after Stop: %d stripes scrubbed, was %d", st.ScrubbedStripes, mid.ScrubbedStripes)
	}
}

// --- Supervisor end to end --------------------------------------------------

// The full loop with zero external intervention: a member crashes mid-life,
// heartbeats notice, the detector escalates, the supervisor marks it failed
// and rebuilds onto the spare, and the device image survives byte-exact.
func TestSupervisorAutoRecovery(t *testing.T) {
	cl, h := testCluster(t, 5, 1, raid.Raid5)
	ref := seedDevice(t, cl, h, 99)

	log := repair.NewLog(cl.Rt)
	sup := repair.NewSupervisor(cl.Rt, h, repair.Config{
		Detector: repair.DetectorConfig{
			HeartbeatEvery:   sim.Millisecond,
			HeartbeatTimeout: 500 * sim.Microsecond,
		},
		Pool: cl.Spares,
	}, nil, log)
	sup.Start()
	defer sup.Stop()

	cl.FailTarget(3) // nobody calls SetFailed
	cl.Rt.RunFor(5 * sim.Millisecond)
	cl.Rt.Run() // drive the launched rebuild to completion

	if got := sup.Detector().FailTransitions; got != 1 {
		t.Fatalf("fail transitions = %d, want 1 (automatic detection)", got)
	}
	// Post-rebuild the member is healthy again: it is served by the spare.
	if got := sup.Detector().State(3); got != repair.Healthy {
		t.Fatalf("detector state after recovery = %v, want healthy", got)
	}
	if got := h.FailedMembers(); len(got) != 0 {
		t.Fatalf("failed members after auto-recovery = %v, want none", got)
	}
	if n := cl.Spares.Available(); n != 0 {
		t.Fatalf("spare pool = %d, want 0 (consumed)", n)
	}
	kinds := []string{}
	for _, e := range log.Events() {
		if e.Member == 3 {
			kinds = append(kinds, e.Kind)
		}
	}
	want := []string{"failed", "rebuild-start", "rebuild-done"}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds = %v, want %v", kinds, want)
		}
	}
	got := mustRead(t, cl, h, 0, h.Size())
	if !bytes.Equal(got, ref) {
		t.Fatalf("device image diverged after automatic recovery")
	}
}

// Foreground I/O keeps completing while a throttled rebuild runs — the
// Figure 17 tradeoff the token bucket exists for.
func TestForegroundServiceDuringRebuild(t *testing.T) {
	cl, h := testCluster(t, 5, 1, raid.Raid5)
	ref := seedDevice(t, cl, h, 5)

	cl.FailTarget(0)
	h.SetFailed(0, true)
	reb := newRebuilder(cl, h, repair.RebuilderConfig{RateMBps: 50}, "rebuild")
	rebErr := errors.New("not done")
	reb.Run(planned(planRebuild(t, cl, h, 0)), func(err error) { rebErr = err })

	// Interleave foreground reads with the rebuild: issue one read per
	// virtual millisecond and require every one of them to complete.
	completed := 0
	var issue func(i int)
	issue = func(i int) {
		if i >= 20 {
			return
		}
		off := (int64(i) * 3 * chunkSize) % (h.Size() - chunkSize)
		h.Read(off, chunkSize, func(b parity.Buffer, err error) {
			if err != nil {
				t.Errorf("foreground read %d during rebuild: %v", i, err)
			} else if !bytes.Equal(b.Data(), ref[off:off+chunkSize]) {
				t.Errorf("foreground read %d returned stale bytes", i)
			}
			b.Release()
			completed++
		})
		cl.Rt.After(sim.Millisecond, func() { issue(i + 1) })
	}
	issue(0)
	cl.Rt.Run()

	if rebErr != nil {
		t.Fatalf("rebuild: %v", rebErr)
	}
	if completed != 20 {
		t.Fatalf("foreground reads completed = %d, want 20", completed)
	}
}

// --- Host failover ----------------------------------------------------------

// TestFailoverFencesBeforeItServes: the fence is out by the time Failover
// returns, so whatever reaches the replacement next — here a degraded read,
// in the field the next chunk of a supervised rebuild, asked of the new
// controller by a timer — gets an ID above the fence's. Issued ahead of the
// fence, its reduction would be severed with the dead session's ("every ID
// below mine") and the op would time out unanswered.
func TestFailoverFencesBeforeItServes(t *testing.T) {
	cl, h := testCluster(t, 5, 0, raid.Raid5)
	geo := h.Geometry()
	stripeBytes := int64(geo.DataChunks()) * chunkSize
	ref := randBytes(21, int(2*stripeBytes))
	mustWrite(t, cl, h, 0, ref)
	cl.FailTarget(1)
	h.SetFailed(1, true)
	h.Crash()
	h2 := cl.NewDRAID(core.Config{Geometry: geo, Deadline: 5 * sim.Millisecond})
	adopted := h2.Adopt(h)

	ferr := errors.New("not done")
	repair.Failover(cl.Rt, h2, adopted, func(err error) { ferr = err })
	var got []byte
	rdErr := errors.New("not done")
	h2.Read(0, 2*stripeBytes, func(b parity.Buffer, err error) { got, rdErr = b.Disown().Data(), err })
	cl.Rt.Run()
	if ferr != nil {
		t.Fatalf("failover: %v", ferr)
	}
	if rdErr != nil || !bytes.Equal(got, ref) {
		t.Fatalf("degraded read issued right behind the fence: err %v, right bytes %v", rdErr, bytes.Equal(got, ref))
	}
	if st := h2.Stats(); st.Timeouts != 0 {
		t.Fatalf("%d ops of the replacement timed out: its own fence cut them down", st.Timeouts)
	}
}

// A controller crash mid-write loses in-flight state; the replacement adopts
// the array, resyncs exactly the stripes the write-intent bitmap marked
// dirty, and resumes service with parity consistent.
func TestHostFailoverResyncsDirtyStripes(t *testing.T) {
	cl, h := testCluster(t, 5, 0, raid.Raid5)
	geo := h.Geometry()
	stripeBytes := int64(geo.DataChunks()) * chunkSize
	ref := randBytes(11, int(4*stripeBytes))
	mustWrite(t, cl, h, 0, ref)

	// Start writes over two stripes, then crash mid-flight.
	crashed := false
	h.Write(0, parity.FromBytes(randBytes(12, int(stripeBytes))), func(error) {
		if crashed {
			t.Error("write callback fired on a crashed controller")
		}
	})
	h.Write(2*stripeBytes, parity.FromBytes(randBytes(13, int(stripeBytes))), func(error) {
		if crashed {
			t.Error("write callback fired on a crashed controller")
		}
	})
	cl.Rt.RunFor(20 * sim.Microsecond) // partway into the writes
	dirtyBefore := h.DirtyStripes()
	if len(dirtyBefore) == 0 {
		t.Fatal("test setup: no dirty stripes at crash time")
	}
	h.Crash()
	crashed = true
	cl.Rt.Run() // drain whatever the crash left behind
	if !h.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}

	// Replacement adopts: same geometry, same fabric endpoint.
	h2 := cl.NewDRAID(core.Config{
		Geometry: geo,
		Deadline: 5 * sim.Millisecond,
	})
	adopted := h2.Adopt(h)
	if len(adopted) != len(dirtyBefore) {
		t.Fatalf("adopted %d dirty stripes, want %d", len(adopted), len(dirtyBefore))
	}

	ferr := errors.New("not done")
	repair.Failover(cl.Rt, h2, adopted, func(err error) { ferr = err })
	cl.Rt.Run()
	if ferr != nil {
		t.Fatalf("failover resync: %v", ferr)
	}
	if got := h2.Stats().Resyncs; got != int64(len(adopted)) {
		t.Fatalf("resyncs = %d, want exactly the %d dirty stripes", got, len(adopted))
	}
	if got := h2.DirtyStripes(); len(got) != 0 {
		t.Fatalf("dirty stripes after resync = %v, want none", got)
	}

	// Service resumes: a fresh write+read roundtrip on the replacement.
	fresh := randBytes(14, int(stripeBytes))
	wrErr := errors.New("not done")
	h2.Write(0, parity.FromBytes(fresh), func(err error) { wrErr = err })
	cl.Rt.Run()
	if wrErr != nil {
		t.Fatalf("post-failover write: %v", wrErr)
	}
	var got []byte
	rdErr := errors.New("not done")
	h2.Read(0, stripeBytes, func(b parity.Buffer, err error) { got, rdErr = b.Disown().Data(), err })
	cl.Rt.Run()
	if rdErr != nil {
		t.Fatalf("post-failover read: %v", rdErr)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("post-failover roundtrip returned wrong bytes")
	}
}
