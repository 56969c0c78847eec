package draid_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"draid"
	"draid/internal/raid"
)

// wbArray builds a small write-back array: 5-wide RAID-5, 16 KB chunks
// (64 KB stripe data), staging on with a long idle-destage tick so tests
// control destage timing explicitly (via Flush or full-stripe coverage).
func wbArray(t *testing.T, seed int64) *draid.Array {
	t.Helper()
	arr, err := draid.New(draid.Config{
		Drives: 5, ChunkSize: 16 << 10, DriveCapacity: 1 << 20, Seed: seed,
		WriteBack: true, StageMB: 1, DestageIntervalMs: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// TestWritebackReadYourWrites: sub-stripe writes are acknowledged without
// drive I/O, readable before destage (from the stage, through every read
// path), and land on the drives after Flush.
func TestWritebackReadYourWrites(t *testing.T) {
	arr := wbArray(t, 11)
	data := randBytes(21, 24<<10) // 1.5 chunks: sub-stripe, stays staged
	if err := arr.WriteSync(4<<10, data); err != nil {
		t.Fatal(err)
	}
	st := arr.Status().Counters
	if st.StagedWrites == 0 {
		t.Fatalf("sub-stripe write was not staged: %+v", st)
	}
	if st.DestageFullStripe+st.DestageRCW != 0 {
		t.Fatalf("premature destage: %+v", st)
	}
	got, err := arr.ReadSync(4<<10, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("staged read-your-writes returned wrong data")
	}
	// A read straddling staged and unstaged bytes must merge correctly.
	wide, err := arr.ReadSync(0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wide[4<<10:28<<10], data) {
		t.Fatal("straddling read lost staged bytes")
	}
	if err := arr.Flush(); err != nil {
		t.Fatal(err)
	}
	st = arr.Status().Counters
	if st.DestageFullStripe+st.DestageRCW == 0 {
		t.Fatalf("flush destaged nothing: %+v", st)
	}
	if n := arr.Controller().StagedBytes(); n != 0 {
		t.Fatalf("stage not drained after flush: %d bytes", n)
	}
	got, err = arr.ReadSync(4<<10, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-flush read returned wrong data")
	}
}

// TestWritebackFullCoverageDestagesImmediately: coalescing sub-stripe writes
// to full coverage triggers an immediate full-stripe destage — the optimal
// amplification path needs no timer.
func TestWritebackFullCoverageDestagesImmediately(t *testing.T) {
	arr := wbArray(t, 12)
	ref := randBytes(22, 64<<10)
	for c := 0; c < 4; c++ {
		if err := arr.WriteSync(int64(c)*16<<10, ref[c*16<<10:(c+1)*16<<10]); err != nil {
			t.Fatal(err)
		}
	}
	arr.Run()
	st := arr.Status().Counters
	if st.DestageFullStripe == 0 {
		t.Fatalf("full coverage did not destage as a full stripe: %+v", st)
	}
	if st.DestageRCW != 0 {
		t.Fatalf("full coverage paid RCW: %+v", st)
	}
	got, err := arr.ReadSync(0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("destaged stripe read back wrong")
	}
}

// TestWritebackFailoverAdoptsStage: acknowledged staged writes survive a host
// crash — the replacement controller replays the intent log via Adopt and
// serves them before any destage.
func TestWritebackFailoverAdoptsStage(t *testing.T) {
	arr := wbArray(t, 13)
	data := randBytes(23, 20<<10)
	if err := arr.WriteSync(8<<10, data); err != nil {
		t.Fatal(err)
	}
	if arr.Status().Counters.StagedWrites == 0 {
		t.Fatal("write was not staged")
	}
	if _, err := arr.FailoverHost(); err != nil {
		t.Fatal(err)
	}
	got, err := arr.ReadSync(8<<10, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("staged write lost across failover")
	}
	if err := arr.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err = arr.ReadSync(8<<10, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("adopted write lost after destage")
	}
}

// TestWritebackFailedDestageKeepsLentBufferStill: a destage lends slices of
// its snapshot to its write capsules. When the destage fails while one of
// them is still parked in a stalled drive's queue (the realtime drives read a
// write's bytes when it completes), the snapshot's storage must not become
// the live stage buffer again — the next user write to the stripe would be
// copied into bytes the straggler has yet to persist, and the drive would end
// up holding data newer than anything the host computed parity from.
func TestWritebackFailedDestageKeepsLentBufferStill(t *testing.T) {
	arr, err := draid.New(draid.Config{
		Backend: draid.BackendRealtime,
		Drives:  5, ChunkSize: 16 << 10, DriveCapacity: 1 << 20, Seed: 17,
		WriteBack: true, StageMB: 1, DestageIntervalMs: 10_000,
		OpDeadline: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Close()
	geo := raid.Geometry{Level: raid.Raid5, Width: 5, ChunkSize: 16 << 10}
	if err := arr.WriteSync(0, randBytes(31, 64<<10)); err != nil { // full stripe: written through
		t.Fatal(err)
	}
	arr.Run()

	// The member holding chunk 0 stalls for longer than the test needs: a
	// destage that writes to it times out, retries, and fails.
	const stall = 600 * time.Millisecond
	d0 := geo.DataDrive(0, 0)
	if err := arr.Inject().SlowDrive(d0, draid.SlowProfile{Kind: draid.SlowStall, Stall: stall, Period: time.Hour}); err != nil {
		t.Fatal(err)
	}
	stalledAt := time.Now()
	// Writes below return at the ack (a cancellable context), not at
	// quiescence as WriteSync would — quiescence is after the stall.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Version A of chunks 0 and 1 is staged (half a stripe: nothing destages
	// on its own), then flushed; the flush reports the destage's failure.
	a := randBytes(32, 32<<10)
	if err := arr.WriteContext(ctx, 0, a); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	arr.Cluster().Rt.Call(func() {
		arr.Controller().FlushStage(func(err error) { flushed <- err })
	})
	if err := <-flushed; err == nil {
		t.Fatal("destage onto a stalled member succeeded")
	}
	if time.Since(stalledAt) >= stall {
		t.Skip("the destage outlived the stall: nothing was left in flight to race")
	}

	// Version B of chunk 0 is staged while A's capsule is still parked in the
	// stalled drive's queue, waiting to read its payload. B stays staged.
	if err := arr.WriteContext(ctx, 0, randBytes(33, 16<<10)); err != nil {
		t.Fatal(err)
	}
	arr.Run() // the stall ends, the straggler lands
	if st := arr.Status().Counters; st.DestageFullStripe+st.DestageRCW != 1 {
		t.Fatalf("%d destages ran, want only the failed one", st.DestageFullStripe+st.DestageRCW)
	}

	peek := arr.Cluster().Drives[d0].(interface{ PeekSync(off, n int64) []byte })
	if got := peek.PeekSync(geo.DriveOffset(0), 16<<10); !bytes.Equal(got, a[:16<<10]) {
		t.Fatal("the failed destage's straggler persisted bytes written after it was issued")
	}
}

// TestWritebackTortureCrashMidDestage is the crash-consistency torture
// family: random acknowledged sub-stripe writes against a byte model, with
// host failovers fired while destages are in flight (drive writes abandoned
// mid-stripe), drive failure + degraded service + rebuild racing the stage,
// and background scrubbing under staged-but-not-destaged stripes. Every
// acknowledged write must be readable at every point — zero lost writes —
// and the drained array must hold nothing.
func TestWritebackTortureCrashMidDestage(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			arr, err := draid.New(draid.Config{
				Drives: 5, ChunkSize: 16 << 10, DriveCapacity: 1 << 20, Seed: seed,
				WriteBack: true, StageMB: 1, DestageIntervalMs: 1,
				Integrity: true,
				Hedge:     draid.HedgeConfig{Policy: draid.HedgeAdaptiveP95},
			})
			if err != nil {
				t.Fatal(err)
			}
			size := arr.Size()
			o := arrayOracle(t, arr)
			mustPut(t, o, 0, randBytes(seed+40, int(size)))
			rng := rand.New(rand.NewSource(seed * 101))
			failed := -1
			for iter := 0; iter < 60; iter++ {
				// Random acknowledged sub-stripe write; write-back semantics
				// mean the ack makes it durable, so the model updates now.
				wLen := int64(1+rng.Intn(24)) << 10
				wOff := rng.Int63n(size - wLen)
				data := make([]byte, wLen)
				rng.Read(data)
				mustPut(t, o, wOff, data)

				// Model-checked read (hedged/degraded/overlaid as the state
				// dictates).
				rLen := int64(1+rng.Intn(32)) << 10
				o.Read(rng.Int63n(size-rLen), rLen)

				switch {
				case iter%9 == 4 && failed < 0:
					// Crash mid-destage: kick destages of everything staged
					// (their drive writes go in flight inline), then fail the
					// host over before they complete. The replacement adopts
					// the stage via the intent log; abandoned partial stripes
					// resync through the dirty bitmap. Only while healthy —
					// MD-style resync of a degraded stripe forfeits the
					// missing chunk, which is the classic RAID-5 double
					// failure, not a staging property.
					arr.Controller().FlushStage(func(error) {})
					if _, err := arr.FailoverHost(); err != nil {
						t.Fatalf("iter %d failover: %v", iter, err)
					}
				case iter%15 == 7 && failed < 0:
					failed = 1 + rng.Intn(4)
					arr.FailDrive(failed)
				case iter%15 == 13 && failed >= 0:
					if err := arr.RebuildDrive(failed, 0); err != nil {
						t.Fatalf("iter %d rebuild: %v", iter, err)
					}
					failed = -1
				case iter%10 == 9 && failed < 0:
					if _, err := arr.ScrubNow(); err != nil {
						t.Fatalf("iter %d scrub: %v", iter, err)
					}
				}
			}
			if failed >= 0 {
				if err := arr.RebuildDrive(failed, 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := arr.Flush(); err != nil {
				t.Fatal(err)
			}
			st := arr.Status().Counters
			if st.StagedWrites == 0 || st.DestageFullStripe+st.DestageRCW == 0 {
				t.Fatalf("torture never exercised the stage: %+v", st)
			}
			o.Sweep()
			// One last crash after the flush: an empty stage adopts cleanly.
			if _, err := arr.FailoverHost(); err != nil {
				t.Fatal(err)
			}
			o.Sweep()
			o.Quiesce()
		})
	}
}

// TestWritebackReadCache: with a clean-read cache configured, repeated reads
// of the same range are served from host memory (CacheHits) and writes
// invalidate stale blocks.
func TestWritebackReadCache(t *testing.T) {
	arr, err := draid.New(draid.Config{
		Drives: 5, ChunkSize: 16 << 10, DriveCapacity: 1 << 20, Seed: 31,
		WriteBack: true, StageMB: 1, CacheMB: 1, DestageIntervalMs: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := randBytes(32, 64<<10)
	if err := arr.WriteSync(0, ref); err != nil { // full stripe: write-through
		t.Fatal(err)
	}
	if _, err := arr.ReadSync(0, 64<<10); err != nil { // fills the cache
		t.Fatal(err)
	}
	before := arr.Status().Counters.CacheHits
	got, err := arr.ReadSync(8<<10, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref[8<<10:24<<10]) {
		t.Fatal("cached read returned wrong data")
	}
	st := arr.Status().Counters
	if st.CacheHits == before {
		t.Fatalf("repeat read missed the cache: %+v", st)
	}
	if st.CacheBytes == 0 {
		t.Fatalf("cache occupancy not accounted: %+v", st)
	}
	// Overwrite through the cache; the stale blocks must not be served.
	upd := randBytes(33, 64<<10)
	if err := arr.WriteSync(0, upd); err != nil {
		t.Fatal(err)
	}
	got, err = arr.ReadSync(8<<10, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, upd[8<<10:24<<10]) {
		t.Fatal("cache served stale data after overwrite")
	}
}

// TestWritebackReadCacheKeepsItsOwnCopy: a read's buffer is lent to its
// callback and then recycled for later reads, so the clean-read cache must
// fill from a copy. A range read once, its buffer recycled by a read of
// other bytes, must come back from the cache as it was.
func TestWritebackReadCacheKeepsItsOwnCopy(t *testing.T) {
	arr, err := draid.New(draid.Config{
		Drives: 5, ChunkSize: 16 << 10, DriveCapacity: 1 << 20, Seed: 34,
		WriteBack: true, StageMB: 1, CacheMB: 1, DestageIntervalMs: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	const stripe = 64 << 10
	ref, other := randBytes(35, stripe), randBytes(36, stripe)
	for off, data := range map[int64][]byte{0: ref, stripe: other} {
		if err := arr.WriteSync(off, data); err != nil { // full stripes: write-through
			t.Fatal(err)
		}
	}
	lentRead := func(off int64, want []byte) {
		var rerr error
		arr.Read(off, stripe, func(b []byte, err error) {
			if rerr = err; err == nil && !bytes.Equal(b, want) {
				rerr = fmt.Errorf("read at %d returned wrong bytes", off)
			}
		})
		arr.Run()
		if rerr != nil {
			t.Fatal(rerr)
		}
	}
	lentRead(0, ref) // from the drives, into the cache
	for i := 0; i < 3; i++ {
		lentRead(stripe, other) // each takes the buffer the last one gave back
	}
	before := arr.Status().Counters.CacheHits
	got, err := arr.ReadSync(0, stripe)
	if err != nil {
		t.Fatal(err)
	}
	if arr.Status().Counters.CacheHits == before {
		t.Fatal("the repeat read missed the cache")
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("the cache served bytes of a recycled read buffer")
	}
}

// TestGoldenWritebackDisabledByteIdentical pins the staging layer's
// zero-cost-when-off promise: with WriteBack false (the default) the golden
// workload produces a trace byte-identical to the pre-staging golden capture,
// and every staging surface stays inert.
func TestGoldenWritebackDisabledByteIdentical(t *testing.T) {
	arr := runGoldenWorkload(t, draid.Config{
		Drives: 5, ChunkSize: 64 << 10, DriveCapacity: 1 << 20,
		Seed: 3, Observe: draid.Observe{Trace: true},
		WriteBack: false,
	})
	if got, want := goldenTrace(t, arr), golden(t, "golden_single_volume_trace.json"); !bytes.Equal(got, want) {
		t.Errorf("writeback-disabled trace not byte-identical to golden (%d bytes vs %d)",
			len(got), len(want))
	}
	st := arr.Status().Counters
	if st.StagedWrites != 0 || st.DestageFullStripe != 0 || st.DestageRCW != 0 ||
		st.CacheHits != 0 || st.CacheBytes != 0 {
		t.Errorf("writeback disabled but staging counters moved: %+v", st)
	}
	if n := arr.Controller().StagedBytes(); n != 0 {
		t.Errorf("writeback disabled but stage reports %d bytes", n)
	}
	if err := arr.Flush(); err != nil { // must complete immediately as a no-op
		t.Errorf("no-op flush failed: %v", err)
	}
}

// TestWritebackConfigValidation: the sizing knobs require WriteBack.
func TestWritebackConfigValidation(t *testing.T) {
	for _, cfg := range []draid.Config{
		{StageMB: 16},
		{CacheMB: 4},
		{DestageIntervalMs: 5},
		{WriteBack: true, StageMB: -1},
	} {
		if _, err := draid.New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if err := (draid.Config{WriteBack: true, StageMB: 8, CacheMB: 2, DestageIntervalMs: 5}).Validate(); err != nil {
		t.Errorf("valid writeback config rejected: %v", err)
	}
}

// TestWritebackPoolVolume: staging composes with pooled volumes — per-volume
// stage, per-volume counters, co-tenant unaffected.
func TestWritebackPoolVolume(t *testing.T) {
	p, err := draid.NewPool(draid.PoolConfig{Drives: 5, DriveCapacity: 2 << 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	staged, err := p.OpenVolume(draid.VolumeConfig{
		Name: "staged", ChunkSize: 16 << 10, Extent: 1 << 20,
		WriteBack: true, StageMB: 1, DestageIntervalMs: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := p.OpenVolume(draid.VolumeConfig{Name: "plain", ChunkSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(41, 24<<10)
	if err := staged.WriteSync(0, data); err != nil {
		t.Fatal(err)
	}
	if err := plain.WriteSync(0, data); err != nil {
		t.Fatal(err)
	}
	if staged.Status().Counters.StagedWrites == 0 {
		t.Fatal("pool volume did not stage")
	}
	if plain.Status().Counters.StagedWrites != 0 {
		t.Fatal("co-tenant volume staged without WriteBack")
	}
	if err := staged.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := staged.ReadSync(0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("pooled staged volume read back wrong data")
	}
}

// TestWritebackBenchmark: the closed-loop benchmark runs against a staged
// array and the write-mix ratios stay coherent.
func TestWritebackBenchmark(t *testing.T) {
	arr, err := draid.New(draid.Config{
		Drives: 8, ChunkSize: 64 << 10, SizeOnly: true, Seed: 17, WriteBack: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := arr.Benchmark(draid.BenchmarkSpec{
		IOSizeBytes: 64 << 10, QueueDepth: 8,
		Ramp: 5 * time.Millisecond, Measure: 20 * time.Millisecond,
	})
	if res.BandwidthMBps <= 0 {
		t.Fatalf("no bandwidth measured: %+v", res)
	}
	if sum := res.FullStripeFrac + res.RMWFrac + res.RCWFrac; sum != 0 && (sum < 0.999 || sum > 1.001) {
		t.Fatalf("write-mix fractions do not sum to 1: %+v", res)
	}
}
