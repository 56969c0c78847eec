package chaos

import (
	"os"
	"strings"
	"testing"

	"draid"
	"draid/internal/parity"
)

// TestMain poisons released pooled buffers, so a buffer kept past its
// release — a lent read, a payload handed on — fails the oracle here.
func TestMain(m *testing.M) {
	parity.SetPoison(true)
	os.Exit(m.Run())
}

// TestSimPartitionSweep is the acceptance sweep: eight seeds, every
// partition-shaped fault placed before every workload step, across fixed and
// declustered layouts with write-back on and off. Every trial must verify
// every acknowledged write, scrub clean, and converge; the isolate+seize
// schedules must show the fence actually engaging (stale rejects).
func TestSimPartitionSweep(t *testing.T) {
	for _, mode := range []Mode{
		{},
		{WriteBack: true},
		{Declustered: true},
		{Declustered: true, WriteBack: true},
	} {
		t.Run(mode.String(), func(t *testing.T) {
			rep, err := Run(Options{Mode: mode, Faults: PartitionFaults()})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(rep.Summary())
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
			if rep.Skipped > 0 {
				t.Errorf("%d trials skipped on the sim backend; all injections should be supported", rep.Skipped)
			}
			if rep.AckedWrites == 0 {
				t.Error("sweep acknowledged no writes; the workload never engaged")
			}
			if rep.StaleRejects == 0 {
				t.Error("no stale-epoch rejects recorded; the zombie schedules never exercised the fence")
			}
		})
	}
}

// TestSimAllFaults covers the remaining fault kinds — crash+failover, grey
// delay, capsule duplication — on a smaller seed set.
func TestSimAllFaults(t *testing.T) {
	for _, mode := range []Mode{{}, {WriteBack: true}} {
		t.Run(mode.String(), func(t *testing.T) {
			rep, err := Run(Options{Mode: mode, Seeds: []int64{1, 2, 3}})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(rep.Summary())
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
		})
	}
}

// TestTeethCatchStaleDestage proves the harness has teeth: with the servers'
// epoch enforcement injected away (and no lease to fence the zombie), the
// superseded controller's destage tick replays its staged stripe over data
// the new controller wrote — and every trial must detect the corruption. The
// enforcement-on twin of the same schedule must be clean: the only
// difference is the fence.
func TestTeethCatchStaleDestage(t *testing.T) {
	opts := Options{
		Mode:   Mode{WriteBack: true, Teeth: true},
		Faults: []Fault{FaultIsolateSeize},
	}
	teeth, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("teeth: %s", teeth.Summary())
	if teeth.Clean() {
		t.Fatal("epoch enforcement disabled but the sweep reported clean: the harness cannot see stale-destage corruption")
	}
	if len(teeth.Violations) < teeth.Trials {
		t.Errorf("only %d/%d teeth trials caught the stale destage", len(teeth.Violations), teeth.Trials)
	}
	// Each report carries the log tail that localises the breach: the
	// takeover the zombie's stale destage raced.
	for _, v := range teeth.Violations {
		seized := false
		for _, e := range v.Events {
			e, ok := e.(draid.RecoveryEvent)
			seized = seized || ok && e.Kind == "failover" && strings.HasPrefix(e.Detail, "seize:")
		}
		if !seized {
			t.Errorf("teeth violation without the seize in its log tail: %s", v)
		}
	}
	opts.Mode.Teeth = false
	fenced, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fenced: %s", fenced.Summary())
	for _, v := range fenced.Violations {
		t.Errorf("violation with enforcement on: %s", v)
	}
	if fenced.StaleRejects == 0 {
		t.Error("enforcement on but no stale rejects: the zombie never hit the fence")
	}
}

// TestRealtimeChanSweep replays a bounded schedule set against the realtime
// event-loop backend: same protocol stack, wall clocks instead of virtual
// time.
func TestRealtimeChanSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("realtime sweep sleeps on wall clocks")
	}
	rep, err := Run(Options{
		Mode:  Mode{Backend: draid.BackendRealtime, WriteBack: true},
		Seeds: []int64{1, 2},
		Steps: 3, Faults: PartitionFaults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.StaleRejects == 0 {
		t.Error("no stale rejects on the realtime backend")
	}
}

// TestRealtimeTCPSweep runs a tiny schedule set over real loopback sockets.
func TestRealtimeTCPSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("realtime sweep sleeps on wall clocks")
	}
	rep, err := Run(Options{
		Mode:  Mode{Backend: draid.BackendRealtime, TCP: true},
		Seeds: []int64{1},
		Steps: 2, Faults: []Fault{FaultIsolateSeize, FaultPartitionMember},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}
