package draid_test

import (
	"bytes"
	"testing"
	"time"

	"draid"
)

// recoveryArray builds a small array with one hot spare and automatic
// failure detection on.
func recoveryArray(t *testing.T, seed int64, observe bool) *draid.Array {
	t.Helper()
	return smallArray(t, draid.Config{
		Drives:        5,
		ChunkSize:     64 << 10,
		DriveCapacity: 4 << 20,
		Spares:        1,
		Health: draid.HealthConfig{
			Detect:         true,
			HeartbeatEvery: time.Millisecond,
		},
		RebuildRateMBps: 400,
		Seed:            seed,
		Observe:         draid.Observe{Trace: observe},
	})
}

// TestAutoRecovery is the public-API recovery proof: a drive crashes with NO
// SetFailed call, the array detects it via heartbeats, rebuilds onto the hot
// spare, and the full device reads back byte-exact.
func TestAutoRecovery(t *testing.T) {
	arr := recoveryArray(t, 3, false)
	ref := randBytes(21, int(arr.Size()))
	const step = 1 << 20
	for off := 0; off < len(ref); off += step {
		if err := arr.WriteSync(int64(off), ref[off:off+step]); err != nil {
			t.Fatalf("seed write at %d: %v", off, err)
		}
	}

	arr.CrashDrive(2) // fail-stop: the controller is not told
	if h := arr.Status().Health; h[2] != draid.Healthy {
		t.Fatalf("member 2 = %v before detection window, want healthy", h[2])
	}
	arr.RunFor(5 * time.Millisecond) // heartbeats notice and escalate
	arr.Run()                        // the launched rebuild drains

	if got := arr.Status().Failed; len(got) != 0 {
		t.Fatalf("failed drives after auto-recovery = %v, want none", got)
	}
	if got := arr.Status().Spares; got != 0 {
		t.Fatalf("spares = %d, want 0 (consumed by rebuild)", got)
	}
	if st := arr.Status().Rebuild; st.Active {
		t.Fatalf("rebuild still active: %+v", st)
	}
	if h := arr.Status().Health; h[2] != draid.Healthy {
		t.Fatalf("member 2 = %v after rebuild, want healthy (served by spare)", h[2])
	}
	kinds := map[string]int{}
	for _, e := range arr.Status().Events {
		kinds[e.Kind]++
	}
	for _, want := range []string{"failed", "rebuild-start", "rebuild-done"} {
		if kinds[want] != 1 {
			t.Fatalf("recovery log %v: want exactly one %q event", arr.Status().Events, want)
		}
	}

	got, err := arr.ReadSync(0, arr.Size())
	if err != nil {
		t.Fatalf("full read after recovery: %v", err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("device image diverged after automatic recovery")
	}
}

// TestFailoverHost crashes the controller mid-write through the public API:
// the replacement resyncs exactly the write-intent-dirty stripes and resumes
// service.
func TestFailoverHost(t *testing.T) {
	arr := smallArray(t, draid.Config{Drives: 5, DriveCapacity: 4 << 20, Seed: 5})
	stripeBytes := int64(4) * (64 << 10)
	base := randBytes(31, int(4*stripeBytes))
	if err := arr.WriteSync(0, base); err != nil {
		t.Fatal(err)
	}

	// In-flight writes at crash time: callbacks will be abandoned.
	arr.Write(0, randBytes(32, int(stripeBytes)), func(error) {})
	arr.Write(2*stripeBytes, randBytes(33, int(stripeBytes)), func(error) {})
	arr.RunFor(20 * time.Microsecond)

	resynced, err := arr.FailoverHost()
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if resynced == 0 {
		t.Fatal("failover resynced nothing; expected dirty stripes from the in-flight writes")
	}
	if got := arr.Status().Counters.Resyncs; got != int64(resynced) {
		t.Fatalf("stats resyncs = %d, want %d", got, resynced)
	}

	// Service resumes on the replacement controller.
	fresh := randBytes(34, int(stripeBytes))
	if err := arr.WriteSync(0, fresh); err != nil {
		t.Fatalf("post-failover write: %v", err)
	}
	got, err := arr.ReadSync(0, stripeBytes)
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("post-failover roundtrip: %v", err)
	}
}

// TestRecoveryTraceDeterminism: the whole detection→rebuild pipeline runs in
// virtual time, so two same-seed recovery runs emit byte-identical traces.
func TestRecoveryTraceDeterminism(t *testing.T) {
	run := func() []byte {
		arr := recoveryArray(t, 9, true)
		data := randBytes(41, 256<<10)
		if err := arr.WriteSync(0, data); err != nil {
			t.Fatal(err)
		}
		arr.CrashDrive(1)
		arr.RunFor(5 * time.Millisecond)
		arr.Run()
		if got := arr.Status().Failed; len(got) != 0 {
			t.Fatalf("recovery incomplete: failed = %v", got)
		}
		var buf bytes.Buffer
		if err := arr.Trace().WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := run()
	b := run()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed recovery runs produced different traces")
	}
	for _, want := range []string{"rebuild", "heartbeat"} {
		if !bytes.Contains(a, []byte(want)) {
			t.Fatalf("recovery trace missing %q", want)
		}
	}
}

// TestFailoverMidRebuild: a supervised rebuild survives its controller. The
// host fails over — crashed and adopted, or seized alive — while the walk is
// between two chunks (paced) or in the middle of one (unthrottled: chunks run
// back to back, and a crash drops the callbacks of the one in flight). The
// replacement carries the same walk to the end: the drive heals, the spare
// or the spare slots hold the right bytes, and nothing — rebuild entry,
// layout reservation, stripe lock — is left open on it.
func TestFailoverMidRebuild(t *testing.T) {
	for _, tc := range []struct {
		name        string
		declustered bool
		rateMBps    float64
		into        time.Duration
		seize       bool
	}{
		{"fixed/between-chunks", false, 50, 6 * time.Millisecond, false},
		{"fixed/mid-chunk", false, 0, 700 * time.Microsecond, false},
		{"fixed/mid-chunk-seized", false, 0, 700 * time.Microsecond, true},
		{"declustered/between-chunks", true, 50, 6 * time.Millisecond, false},
		{"declustered/mid-chunk", true, 0, 700 * time.Microsecond, false},
		{"declustered/mid-chunk-seized", true, 0, 700 * time.Microsecond, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := draid.Config{
				Drives: 5, DriveCapacity: 1 << 20, Spares: 1, Seed: 3,
				RebuildRateMBps: tc.rateMBps, EpochFencing: tc.seize,
			}
			if tc.declustered {
				cfg.Drives, cfg.ClusterDrives, cfg.Declustered = 3, 6, true
			}
			arr := smallArray(t, cfg)
			ref := randBytes(51, int(arr.Size()))
			if err := arr.WriteSync(0, ref); err != nil {
				t.Fatal(err)
			}
			arr.FailDrive(1)
			arr.RunFor(tc.into)
			if st := arr.Status().Rebuild; !st.Active || st.Done == 0 || st.Done >= st.Total-1 {
				t.Fatalf("test setup: rebuild not under way at failover: %+v", st)
			}
			takeover := arr.FailoverHost
			if tc.seize {
				takeover = arr.SeizeHost
			}
			if _, err := takeover(); err != nil {
				t.Fatalf("takeover: %v", err)
			}
			arr.Run()
			if st := arr.Status().Rebuild; st.Active || st.Done != st.Total {
				t.Fatalf("rebuild did not finish on the replacement: %+v\n%v", st, arr.Status().Events)
			}
			if failed := arr.Status().Failed; tc.declustered != (len(failed) == 1) {
				t.Fatalf("failed drives after the rebuild = %v", failed)
			}
			if err := arr.Cluster().LeakCheck(); err != nil {
				t.Fatalf("replacement controller after the rebuild: %v", err)
			}
			// Every byte reads back, and the rebuilt chunks are coherent with
			// their stripes' parity: a scrub finds nothing to repair.
			got, err := arr.ReadSync(0, arr.Size())
			if err != nil || !bytes.Equal(got, ref) {
				t.Fatalf("device image after the rebuild: err=%v, equal=%v", err, bytes.Equal(got, ref))
			}
			if st, err := arr.ScrubNow(); err != nil || st.ParityRepairs+st.MediaRepairs+st.Errors+st.SkippedStripes != 0 {
				t.Fatalf("scrub after the rebuild: %+v, %v", st, err)
			}
		})
	}
}

// TestFailoverMidScrub: a scrub pass survives its controller. The host
// crashes while a background pass has a stripe in flight — every callback of
// that stripe is dropped with the crash. The replacement's fence ends the
// stripe as abandoned, the scrubber redoes it there, and the pass walks on to
// the end with nothing — stripe lock, operation — left open.
func TestFailoverMidScrub(t *testing.T) {
	for _, declustered := range []bool{false, true} {
		name := "fixed"
		cfg := draid.Config{
			Drives: 5, DriveCapacity: 1 << 20, Seed: 3,
			Integrity: true, ScrubInterval: 20 * time.Millisecond,
		}
		if declustered {
			name = "declustered"
			cfg.Drives, cfg.ClusterDrives, cfg.Declustered = 3, 6, true
		}
		t.Run(name, func(t *testing.T) {
			arr := smallArray(t, cfg)
			ref := randBytes(52, int(arr.Size()))
			if err := arr.WriteSync(0, ref); err != nil {
				t.Fatal(err)
			}
			arr.RunFor(20*time.Millisecond + 500*time.Microsecond - arr.Now()) // the first pass starts at 20 ms
			st := arr.Status().Scrub
			if !st.Active || st.Stripe == 0 || st.Stripe >= st.TotalStripes-1 {
				t.Fatalf("test setup: scrub pass not under way at failover: %+v", st)
			}
			if err := arr.Cluster().LeakCheck(); err == nil {
				t.Fatal("test setup: no scrub stripe in flight at failover")
			}
			if _, err := arr.FailoverHost(); err != nil {
				t.Fatalf("failover: %v", err)
			}
			arr.RunFor(10 * time.Millisecond)
			st = arr.Status().Scrub
			if st.Active || st.Passes != 1 || st.ScrubbedStripes != st.TotalStripes || st.Errors+st.SkippedStripes != 0 {
				t.Fatalf("scrub pass did not finish on the replacement: %+v", st)
			}
			if err := arr.Cluster().LeakCheck(); err != nil {
				t.Fatalf("replacement controller after the pass: %v", err)
			}
			got, err := arr.ReadSync(0, arr.Size())
			if err != nil || !bytes.Equal(got, ref) {
				t.Fatalf("device image after the pass: err=%v, equal=%v", err, bytes.Equal(got, ref))
			}
		})
	}
}

// TestManualRebuildBesideSupervised: Array.RebuildDrive runs on a rebuilder
// of its own, so on a supervised array it neither waits for nor blocks the
// supervisor's. A RAID-6 array is rebuilding drive 1 onto its only spare,
// paced, when drive 3 fails and queues for a spare that will not come; the
// administrator swaps drive 3 and rebuilds it in place, next to the
// supervised walk. Both finish, and the queued entry is dropped harmlessly.
func TestManualRebuildBesideSupervised(t *testing.T) {
	arr := smallArray(t, draid.Config{
		Level: draid.Raid6, Drives: 6, DriveCapacity: 1 << 20, Spares: 1,
		RebuildRateMBps: 50, Seed: 4,
	})
	ref := randBytes(61, int(arr.Size()))
	if err := arr.WriteSync(0, ref); err != nil {
		t.Fatal(err)
	}
	arr.FailDrive(1)
	arr.RunFor(6 * time.Millisecond)
	arr.FailDrive(3)
	arr.RunFor(time.Millisecond)
	if st := arr.Status().Rebuild; !st.Active || st.Drive != 1 || st.Done >= st.Total-1 {
		t.Fatalf("test setup: supervised rebuild of drive 1 not under way: %+v", st)
	}
	if err := arr.RebuildDrive(3, 0); err != nil {
		t.Fatalf("manual rebuild next to the supervised one: %v", err)
	}
	if st := arr.Status().Rebuild; st.Active || st.Drive != 1 || st.Done != st.Total {
		t.Fatalf("supervised rebuild after the manual one returned: %+v", st)
	}
	if failed := arr.Status().Failed; len(failed) != 0 {
		t.Fatalf("failed drives after both rebuilds = %v\n%v", failed, arr.Status().Events)
	}
	if err := arr.Cluster().LeakCheck(); err != nil {
		t.Fatal(err)
	}
	got, err := arr.ReadSync(0, arr.Size())
	if err != nil || !bytes.Equal(got, ref) {
		t.Fatalf("device image after both rebuilds: err=%v, equal=%v", err, bytes.Equal(got, ref))
	}
	if st, err := arr.ScrubNow(); err != nil || st.ParityRepairs+st.MediaRepairs+st.Errors+st.SkippedStripes != 0 {
		t.Fatalf("scrub after both rebuilds: %+v, %v", st, err)
	}
}
