package core_test

import (
	"testing"

	"draid/internal/chaos"
	"draid/internal/core"
	"draid/internal/experiments"
	"draid/internal/fio"
	"draid/internal/raid"
	"draid/internal/sim"
)

// TestLateDuplicatesStayInsideTheRing pins how far a duplicate trails its
// reduction's end — counted in reductions its server ended in between —
// against the ended-reduction ring that drops it: at most a quarter of the
// ring. Two workloads duplicate one member's capsules to and from the host
// and every peer: sim-paper-mix's three phases at QD 32 (8 members, 512 KiB
// chunks, size-only; re-armed every 20 µs), and the chaos duplicate trials
// on both write modes.
func TestLateDuplicatesStayInsideTheRing(t *testing.T) {
	worst := 0
	for _, ph := range []struct {
		io     int64
		read   float64
		failed []int
		window sim.Duration
	}{
		{128 << 10, 0, nil, 50 * sim.Millisecond},
		{4 << 10, 0, nil, 20 * sim.Millisecond},
		{128 << 10, 1, []int{2}, 50 * sim.Millisecond},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			dev, cl := experiments.Build(experiments.Setup{System: experiments.DRAID, Targets: 8, Level: raid.Raid5,
				ChunkSize: 512 << 10, FailedMembers: ph.failed, Seed: seed})
			job := fio.Start(fio.Job{Dev: dev, Eng: cl.Eng, IOSize: ph.io, ReadRatio: ph.read,
				QueueDepth: 32, Ramp: 20 * sim.Millisecond, Measure: ph.window, Seed: seed})
			const m = core.NodeID(1)
			var dup func()
			dup = func() {
				for p := core.HostID; p < 8; p++ {
					if p != m {
						cl.Fabric.DuplicateNext(m, p)
						cl.Fabric.DuplicateNext(p, m)
					}
				}
				if cl.Eng.Now() < job.End {
					cl.Eng.After(20*sim.Microsecond, dup)
				}
			}
			dup()
			cl.Eng.RunUntil(job.End)
			if r := job.Result(); r.Errors != 0 || r.ReadOps+r.WriteOps == 0 {
				t.Fatalf("io=%d seed=%d: %d ops, %d errors", ph.io, seed, r.ReadOps+r.WriteOps, r.Errors)
			}
			for _, s := range cl.Servers {
				worst = max(worst, s.LateAge())
			}
		}
	}
	for _, wb := range []bool{false, true} {
		rep, err := chaos.Run(chaos.Options{
			Mode: chaos.Mode{WriteBack: wb}, Seeds: []int64{1, 2, 3}, Faults: []chaos.Fault{chaos.FaultDuplicate},
		})
		if err != nil || !rep.Clean() {
			t.Fatalf("chaos duplicate trials: %v %v", err, rep.Violations)
		}
		worst = max(worst, rep.LateAge)
	}
	t.Logf("latest duplicate trailed its reduction by %d ended reductions (ring %d)", worst, core.EndedKeys)
	if worst > core.EndedKeys/4 {
		t.Fatalf("a duplicate trailed its reduction by %d ended reductions, over a quarter of the %d-entry ring", worst, core.EndedKeys)
	}
}
