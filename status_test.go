package draid_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"draid"
	"draid/internal/repair"
)

// hasEvent reports whether the log holds an entry of the kind whose detail
// contains substr.
func hasEvent(events []draid.RecoveryEvent, kind, substr string) bool {
	for _, e := range events {
		if e.Kind == kind && strings.Contains(e.Detail, substr) {
			return true
		}
	}
	return false
}

// TestStatusJSON marshals the status of a supervised array after a rebuild,
// on the simulation and on the realtime backend: every field is present,
// member states read as their names and a walk's error as its message.
func TestStatusJSON(t *testing.T) {
	for name, backend := range map[string]draid.BackendKind{"sim": draid.BackendSim, "realtime-chan": draid.BackendRealtime} {
		t.Run(name, func(t *testing.T) {
			arr := smallArray(t, draid.Config{Backend: backend, Drives: 4, ChunkSize: 16 << 10, DriveCapacity: 1 << 20, Spares: 1})
			defer arr.Close()
			if err := arr.WriteSync(0, randBytes(3, 96<<10)); err != nil {
				t.Fatal(err)
			}
			arr.FailDrive(1)
			arr.Run()
			st := arr.Status()
			if st.Rebuild.Active || st.Rebuild.Done == 0 || st.Spares != 0 || len(st.Failed) != 0 {
				t.Fatalf("rebuild onto the spare did not finish: %+v", st)
			}
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]any
			if err := json.Unmarshal(b, &got); err != nil {
				t.Fatal(err)
			}
			for _, field := range []string{"Volume", "Epoch", "Fenced", "Drives", "Failed", "Health", "Spares",
				"Rebuild", "Rebalance", "Scrub", "Lost", "StaleRejects", "Counters", "Events"} {
				if _, ok := got[field]; !ok {
					t.Errorf("status JSON lacks %q: %s", field, b)
				}
			}
			if h, _ := got["Health"].([]any); len(h) != 4 || h[1] != "healthy" {
				t.Errorf("Health = %v, want four names with member 1 healthy again", got["Health"])
			}
			if reb, _ := got["Rebuild"].(map[string]any); reb["Err"] != "" {
				t.Errorf("Rebuild.Err = %#v, want the empty message", reb["Err"])
			}
			if ev, _ := got["Events"].([]any); len(ev) < 3 {
				t.Errorf("Events = %v, want the failure and the rebuild", got["Events"])
			}
		})
	}
	b, err := json.Marshal(draid.RebalanceStatus{Label: "drain d3", Err: errors.New("stripe 7: media error")})
	if err != nil || !strings.Contains(string(b), `"Err":"stripe 7: media error"`) {
		t.Fatalf("walk error marshals as %s (%v), want its message", b, err)
	}
}

// TestRecoveryLogIsBounded runs periodic scrub for more passes than the log
// keeps: the log stays at its capacity, newest last and oldest dropped.
func TestRecoveryLogIsBounded(t *testing.T) {
	arr := smallArray(t, draid.Config{Drives: 3, ChunkSize: 4 << 10, DriveCapacity: 32 << 10, ScrubInterval: 100 * time.Microsecond})
	for i := 0; arr.Status().Scrub.Passes <= repair.LogCapacity; i++ {
		if i == 1000 {
			t.Fatalf("scrub stalled: %+v", arr.Status().Scrub)
		}
		arr.RunFor(5 * time.Millisecond)
	}
	st := arr.Status()
	if len(st.Events) != repair.LogCapacity {
		t.Fatalf("%d events kept after %d passes, want the capacity %d", len(st.Events), st.Scrub.Passes, repair.LogCapacity)
	}
	newest, oldest := st.Events[len(st.Events)-1], st.Events[0]
	if want := fmt.Sprintf("pass %d:", st.Scrub.Passes); newest.Kind != "scrub-pass" || !strings.HasPrefix(newest.Detail, want) {
		t.Fatalf("newest event %v, want the scrub-pass of %q", newest, want)
	}
	if want := fmt.Sprintf("pass %d:", st.Scrub.Passes-repair.LogCapacity+1); !strings.HasPrefix(oldest.Detail, want) {
		t.Fatalf("oldest event %v, want %q", oldest, want)
	}
}

// TestUnsupervisedArraysLogRepairs checks that an array with no supervisor
// still records what its repairs did: the lost region a RAID-5 rebuild left
// behind, the scrub that fixed planted damage, and a host takeover with the
// epoch it was granted.
func TestUnsupervisedArraysLogRepairs(t *testing.T) {
	t.Run("rebuild-lost-region", func(t *testing.T) {
		arr, _, member := rebuildWithURE(t, draid.Config{Level: draid.Raid5, Drives: 5}, 1)
		st := arr.Status()
		if len(st.Lost) == 0 {
			t.Fatal("test setup: the rebuild lost nothing")
		}
		for _, e := range st.Events {
			if e.Kind == "lost-region" && e.Member == member {
				return
			}
		}
		t.Fatalf("no lost-region entry for member %d: %v", member, st.Events)
	})
	t.Run("scrub-now", func(t *testing.T) {
		arr := integrityArray(t, draid.Config{Seed: 5})
		if err := arr.WriteSync(0, randBytes(5, 512<<10)); err != nil {
			t.Fatal(err)
		}
		mustInject(t, arr.Inject().MediaError(100<<10, 8<<10))
		mustInject(t, arr.Inject().BitRot(300<<10, 4<<10))
		if _, err := arr.ScrubNow(); err != nil {
			t.Fatal(err)
		}
		events := arr.Status().Events
		if !hasEvent(events, "scrub-repair", "rewritten") || !hasEvent(events, "scrub-pass", "pass 1:") {
			t.Fatalf("scrub over planted damage logged %v, want scrub-repair and scrub-pass", events)
		}
	})
	t.Run("failover", func(t *testing.T) {
		arr := smallArray(t, draid.Config{EpochFencing: true})
		if err := arr.WriteSync(0, randBytes(6, 256<<10)); err != nil {
			t.Fatal(err)
		}
		if _, err := arr.FailoverHost(); err != nil {
			t.Fatal(err)
		}
		st := arr.Status()
		if want := fmt.Sprintf("epoch %d", st.Epoch); st.Epoch < 2 || !hasEvent(st.Events, "failover", want) {
			t.Fatalf("failover at epoch %d logged %v, want a failover entry naming %q", st.Epoch, st.Events, want)
		}
	})
}
