package draid_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"draid"
)

// declusteredArray builds a small declustered array: width-4 RAID-5 parity
// groups spread over 8 physical drives.
func declusteredArray(t *testing.T, cfg draid.Config) *draid.Array {
	t.Helper()
	cfg.Declustered = true
	if cfg.Drives == 0 {
		cfg.Drives = 4
	}
	if cfg.ClusterDrives == 0 {
		cfg.ClusterDrives = 8
	}
	if cfg.DriveCapacity == 0 {
		cfg.DriveCapacity = 16 << 20
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = 64 << 10
	}
	arr, err := draid.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func TestDeclusteredRoundTrip(t *testing.T) {
	arr := declusteredArray(t, draid.Config{})
	data := randBytes(21, 300<<10)
	if err := arr.WriteSync(8<<10, data); err != nil {
		t.Fatal(err)
	}
	got, err := arr.ReadSync(8<<10, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round-trip mismatch")
	}
	if n := arr.Status().Drives; n != 8 {
		t.Fatalf("Status().Drives = %d, want 8", n)
	}
}

func TestDeclusteredDegradedReadAndRebuild(t *testing.T) {
	arr := declusteredArray(t, draid.Config{Integrity: true})
	data := randBytes(22, 512<<10)
	if err := arr.WriteSync(0, data); err != nil {
		t.Fatal(err)
	}
	arr.FailDrive(3)
	got, err := arr.ReadSync(0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read mismatch")
	}
	// Many-to-many rebuild: chunks relocate into distributed spare slots,
	// the drive is retired, and redundancy is restored without a spare
	// endpoint.
	if err := arr.RebuildDrive(3, 0); err != nil {
		t.Fatal(err)
	}
	// A second, different failure must now be survivable.
	arr.FailDrive(5)
	got, err = arr.ReadSync(0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read after rebuild + second failure mismatch")
	}
	if err := arr.RebuildDrive(5, 0); err != nil {
		t.Fatal(err)
	}
	st, err := arr.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 || st.ParityRepairs != 0 || st.MediaRepairs != 0 {
		t.Fatalf("post-rebuild scrub not clean: %+v", st)
	}
}

func TestDeclusteredAddDriveRebalances(t *testing.T) {
	arr := declusteredArray(t, draid.Config{Spares: 2, Integrity: true})
	data := randBytes(23, 768<<10)
	if err := arr.WriteSync(0, data); err != nil {
		t.Fatal(err)
	}
	idx, err := arr.AddDrive()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 8 {
		t.Fatalf("new drive index = %d, want 8", idx)
	}
	if err := arr.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	st := arr.Status().Rebalance
	if st.Active {
		t.Fatal("rebalance still active after WaitRebalance")
	}
	if st.Done == 0 || st.Done != st.Total {
		t.Fatalf("rebalance did %d/%d moves", st.Done, st.Total)
	}
	if n := arr.Status().Drives; n != 9 {
		t.Fatalf("Status().Drives = %d, want 9", n)
	}
	got, err := arr.ReadSync(0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after rebalance: %v", err)
	}
	scrub, err := arr.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if scrub.Errors != 0 || scrub.ParityRepairs != 0 || scrub.MediaRepairs != 0 {
		t.Fatalf("post-rebalance scrub not clean: %+v", scrub)
	}
}

func TestDeclusteredRemoveDriveDrains(t *testing.T) {
	arr := declusteredArray(t, draid.Config{Spares: 1, Integrity: true})
	data := randBytes(24, 512<<10)
	if err := arr.WriteSync(0, data); err != nil {
		t.Fatal(err)
	}
	// A drive that does not exist is refused, and retires nothing.
	for _, i := range []int{-1, arr.Status().Drives} {
		if err := arr.RemoveDrive(i); !errors.Is(err, draid.ErrOutOfRange) {
			t.Fatalf("RemoveDrive(%d) = %v, want ErrOutOfRange", i, err)
		}
	}
	if err := arr.RemoveDrive(2); err != nil {
		t.Fatal(err)
	}
	if err := arr.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	st := arr.Status().Rebalance
	if st.Label != "drain d2" || st.Done != st.Total {
		t.Fatalf("drain did %d/%d moves (walk %q)", st.Done, st.Total, st.Label)
	}
	got, err := arr.ReadSync(0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after drain: %v", err)
	}
	// The drained drive holds nothing: failing it must not degrade reads.
	arr.FailDrive(2)
	arr.FailDrive(6)
	got, err = arr.ReadSync(0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read with drained+one failed drive: %v", err)
	}
}

func TestDeclusteredSupervisedRebuild(t *testing.T) {
	// With health detection on, a crashed drive is detected and rebuilt
	// many-to-many with no spare endpoint consumed.
	arr := declusteredArray(t, draid.Config{
		Spares: 1,
		Health: draid.HealthConfig{Detect: true, FailAfter: 2},
	})
	data := randBytes(25, 512<<10)
	if err := arr.WriteSync(0, data); err != nil {
		t.Fatal(err)
	}
	before := arr.Status().Spares
	arr.CrashDrive(4)
	arr.RunFor(50 * time.Millisecond) // heartbeats notice; rebuild relocates chunks
	if st := arr.Status().Rebuild; st.Active || st.Done != st.Total || st.Total == 0 {
		t.Fatalf("declustered rebuild incomplete: %+v", st)
	}
	if got := arr.Status().Spares; got != before {
		t.Fatalf("declustered rebuild consumed a spare endpoint (%d → %d)", before, got)
	}
	arr.FailDrive(1)
	got, err := arr.ReadSync(0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after supervised rebuild + second failure: %v", err)
	}
}

func TestDeclusteredConfigValidation(t *testing.T) {
	if _, err := draid.New(draid.Config{Drives: 4, ClusterDrives: 8}); err == nil {
		t.Fatal("ClusterDrives without Declustered accepted")
	}
	if _, err := draid.New(draid.Config{Declustered: true, Drives: 4, ClusterDrives: 4}); err == nil {
		t.Fatal("declustered with ClusterDrives == Drives accepted")
	}
	arr := smallArray(t, draid.Config{})
	if _, err := arr.AddDrive(); !errors.Is(err, draid.ErrUnsupported) {
		t.Fatalf("AddDrive on fixed array = %v, want ErrUnsupported", err)
	}
}

func TestPoolNoCapacityError(t *testing.T) {
	p, err := draid.NewPool(draid.PoolConfig{Drives: 5, DriveCapacity: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.OpenVolume(draid.VolumeConfig{Extent: 3 << 20}); err != nil {
		t.Fatal(err)
	}
	_, err = p.OpenVolume(draid.VolumeConfig{Extent: 3 << 20})
	if !errors.Is(err, draid.ErrNoCapacity) {
		t.Fatalf("overcommitted OpenVolume = %v, want ErrNoCapacity", err)
	}
}

func TestPoolAddDriveGrowsDeclusteredVolumes(t *testing.T) {
	p, err := draid.NewPool(draid.PoolConfig{Drives: 7, DriveCapacity: 16 << 20, Spares: 1})
	if err != nil {
		t.Fatal(err)
	}
	decl, err := p.OpenVolume(draid.VolumeConfig{
		Name: "decl", Drives: 4, Declustered: true, ChunkSize: 64 << 10, Extent: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := p.OpenVolume(draid.VolumeConfig{
		Name: "fixed", Drives: 5, ChunkSize: 64 << 10, Extent: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	dData := randBytes(26, 512<<10)
	fData := randBytes(27, 256<<10)
	if err := decl.WriteSync(0, dData); err != nil {
		t.Fatal(err)
	}
	if err := fixed.WriteSync(0, fData); err != nil {
		t.Fatal(err)
	}
	idx, err := p.AddDrive()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 7 {
		t.Fatalf("new drive index = %d, want 7", idx)
	}
	if err := p.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	if n := decl.Status().Drives; n != 8 {
		t.Fatalf("declustered volume sees %d drives, want 8", n)
	}
	if n := fixed.Status().Drives; n != 5 {
		t.Fatalf("fixed volume sees %d drives, want 5", n)
	}
	got, err := decl.ReadSync(0, int64(len(dData)))
	if err != nil || !bytes.Equal(got, dData) {
		t.Fatalf("declustered read after pool expansion: %v", err)
	}
	got, err = fixed.ReadSync(0, int64(len(fData)))
	if err != nil || !bytes.Equal(got, fData) {
		t.Fatalf("fixed read after pool expansion: %v", err)
	}
}

// TestDeclusterTortureRebalance races an AddDrive rebalance against
// foreground writes, write-back destage, and a concurrent drive failure
// (whose many-to-many rebuild runs alongside the rebalance). Every
// acknowledged write must survive to the final sweep, parity must be sound
// after convergence, and the drained array must hold nothing.
func TestDeclusterTortureRebalance(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			arr, err := draid.New(draid.Config{
				Declustered: true, Drives: 4, ClusterDrives: 8,
				ChunkSize: 16 << 10, DriveCapacity: 1 << 20, Seed: seed,
				Spares: 1, Integrity: true,
				WriteBack: true, StageMB: 1, DestageIntervalMs: 1,
				RebuildRateMBps: 400, // keep the migrations in flight across iterations
			})
			if err != nil {
				t.Fatal(err)
			}
			size := arr.Size()
			o := arrayOracle(t, arr)
			mustPut(t, o, 0, randBytes(seed+60, int(size)))

			if _, err := arr.AddDrive(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed * 131))
			acks := 0
			pending := 0
			failed := -1
			for iter := 0; iter < 50; iter++ {
				// Async acknowledged writes at disjoint offsets interleave
				// with the paced migrations instead of draining them.
				wLen := int64(1+rng.Intn(24)) << 10
				wOff := (int64(iter) * size / 50) % (size - wLen)
				data := make([]byte, wLen)
				rng.Read(data)
				pending++
				end := o.BeginWrite(wOff, data)
				arr.Write(wOff, data, func(err error) {
					if err != nil {
						t.Errorf("iter write ack: %v", err)
					}
					end(err)
					acks++
					pending--
				})
				if iter == 20 {
					// Concurrent drive failure mid-rebalance: the supervisor's
					// declustered rebuild runs alongside the fill.
					failed = rng.Intn(8)
					arr.FailDrive(failed)
				}
				arr.RunFor(150 * time.Microsecond)
			}
			arr.Run()
			if pending != 0 || acks != 50 {
				t.Fatalf("lost acks: %d acked, %d still pending", acks, pending)
			}
			if err := arr.WaitRebalance(); err != nil {
				t.Fatal(err)
			}
			if st := arr.Status().Rebalance; st.Active || st.Done+st.Skipped != st.Total {
				t.Fatalf("rebalance did not converge: %+v", st)
			}
			if rb := arr.Status().Rebuild; rb.Active {
				t.Fatalf("rebuild still active after Run: %+v", rb)
			}
			if err := arr.Flush(); err != nil {
				t.Fatal(err)
			}
			o.Sweep()
			// Parity soundness after convergence: a clean scrub, then a
			// further failure must still reconstruct everything.
			st, err := arr.ScrubNow()
			if err != nil {
				t.Fatal(err)
			}
			if st.Errors != 0 || st.ParityRepairs != 0 || st.MediaRepairs != 0 {
				t.Fatalf("post-convergence scrub not clean: %+v", st)
			}
			probe := failed
			for probe == failed || probe < 0 {
				probe = rng.Intn(9)
			}
			arr.FailDrive(probe)
			o.Sweep()
			o.Quiesce()
		})
	}
}

// TestAddDriveLiveTrafficP99 is the online-expansion acceptance check: with
// the rebalance paced by the rebuild rate budget, foreground p99 during the
// migration stays within 2x its pre-rebalance value, the rebalance
// converges, and the post-rebalance scrub is clean.
func TestAddDriveLiveTrafficP99(t *testing.T) {
	arr := declusteredArray(t, draid.Config{
		Spares: 1, Integrity: true, Seed: 5,
		RebuildRateMBps: 100,
	})
	if err := arr.WriteSync(0, randBytes(31, int(arr.Size()))); err != nil {
		t.Fatal(err)
	}
	spec := draid.BenchmarkSpec{
		IOSizeBytes: 32 << 10, QueueDepth: 8, ReadRatio: 0.7,
		Ramp: 5 * time.Millisecond, Measure: 15 * time.Millisecond,
	}
	before := arr.Benchmark(spec)
	if _, err := arr.AddDrive(); err != nil {
		t.Fatal(err)
	}
	during := arr.Benchmark(spec)
	if st := arr.Status().Rebalance; !st.Active {
		t.Fatalf("rebalance finished before the measurement window: %+v", st)
	}
	if lim := 2 * before.P99Latency; during.P99Latency > lim {
		t.Fatalf("foreground p99 under rebalance = %v, want <= 2x baseline (%v)",
			during.P99Latency, before.P99Latency)
	}
	if err := arr.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	st, err := arr.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 || st.ParityRepairs != 0 || st.MediaRepairs != 0 {
		t.Fatalf("post-rebalance scrub not clean: %+v", st)
	}
}
