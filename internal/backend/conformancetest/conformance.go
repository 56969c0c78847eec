// Package conformancetest is the cross-backend contract suite: every
// Transport/Drive backend must expose identical application-visible
// semantics — healthy round trips, degraded reads, rebuild, media errors,
// bit rot, slow drives, context cancellation — even though the substrates
// (virtual time vs. goroutines and wall clocks) share nothing below the
// protocol layer but the drives' media model (backend.Medium).
//
// Every drive-fault scenario runs on every backend. The fabric faults are
// the one exception: a transport without partition or duplication hooks
// reports draid.ErrUnsupported, and the suite skips what needs them. Reads,
// acknowledged writes and the closing leak check go through the oracle.
package conformancetest

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"draid"
	"draid/internal/backend"
	"draid/internal/chaos"
	"draid/internal/oracle"
	"draid/internal/raid"
)

// Factory builds an array for one backend under test. The suite passes the
// workload shape (drives, chunk size, capacity, integrity, ...); the factory
// fills in Backend/Realtime and returns the assembled array. The suite
// closes returned arrays itself.
type Factory func(t *testing.T, cfg draid.Config) *draid.Array

// baseConfig is the workload shape every scenario starts from: a small
// RAID-5 array whose extents keep realtime rebuilds fast.
func baseConfig() draid.Config {
	return draid.Config{
		Drives:        5,
		ChunkSize:     16 << 10,
		DriveCapacity: 1 << 20,
		Seed:          7,
	}
}

// pattern fills a deterministic, offset-dependent payload so misdirected
// reads cannot pass.
func pattern(off int64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte((off + int64(i)) * 131 % 251)
	}
	return out
}

// open builds a scenario's array and the oracle that checks it; a broken
// promise fails t.
func open(t *testing.T, f Factory, cfg draid.Config) (*draid.Array, *oracle.Oracle) {
	a := f(t, cfg)
	geo := a.Controller().Geometry()
	o := oracle.New(chaos.Device(a), a.Size(), geo.StripeDataSize(), geo.Level.ParityCount())
	o.Report = func(v oracle.Violation) { t.Fatal(v) }
	return a, o
}

// put writes data at off under the oracle; the write must be acknowledged.
func put(t *testing.T, o *oracle.Oracle, off int64, data []byte) {
	t.Helper()
	if err := o.Write(off, data); err != nil {
		t.Fatalf("write [%d,+%d): %v", off, len(data), err)
	}
}

// closeDrained ends a scenario that leaves its array idle: the oracle's
// quiescence check (every pooled buffer released or handed off, no reduction
// left open), then close. Scenarios that deliberately abandon I/O in flight
// close their arrays directly instead.
func closeDrained(t *testing.T, a *draid.Array, o *oracle.Oracle) {
	defer a.Close()
	if !t.Failed() {
		o.Quiesce()
	}
}

// stallDrives installs, on every drive, a stall profile that parks
// operations in the drive's queue — so a write's payload is still being held
// by some server well after its capsule arrived.
func stallDrives(t *testing.T, a *draid.Array) {
	t.Helper()
	for i, n := 0, a.Status().Drives; i < n; i++ {
		err := a.Inject().SlowDrive(i, draid.SlowProfile{
			Kind: draid.SlowStall, Stall: 5 * time.Millisecond, Period: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("stall member %d: %v", i, err)
		}
	}
}

// duplicateCommand arms a one-shot duplication of the next capsule from the
// host to one member, and only that way round: the member executes the
// command twice, the second time after the host may have acknowledged the op.
// (Injector.DuplicateNext also duplicates the completion coming back.)
func duplicateCommand(t *testing.T, a *draid.Array, member int) {
	t.Helper()
	di, ok := a.Cluster().Fab.(backend.DuplicateInjector)
	if !ok {
		t.Skip("transport cannot duplicate capsules")
	}
	a.Cluster().Rt.Call(func() {
		di.DuplicateNext(backend.HostID, a.Controller().MemberNode(member))
	})
}

// calm clears the stall profiles and lets everything drain. No fence is
// needed: a duplicated capsule strands nothing on the servers — its part is
// dropped, and so is one arriving after its reduction ended — so the closing
// leak check sees exactly what the duplicate left behind.
func calm(t *testing.T, a *draid.Array) {
	t.Helper()
	for i, n := 0, a.Status().Drives; i < n; i++ {
		if err := a.Inject().SlowDrive(i, draid.SlowProfile{}); err != nil {
			t.Fatalf("clear stall on member %d: %v", i, err)
		}
	}
	a.Run()
}

// writeAndScribble writes want at off from a scratch buffer that the caller
// overwrites the instant the write is acknowledged — inside the ack callback,
// while duplicated or stalled capsules of the same write may still be alive.
func writeAndScribble(t *testing.T, a *draid.Array, o *oracle.Oracle, off int64, want []byte) {
	t.Helper()
	buf := append([]byte(nil), want...)
	end := o.BeginWrite(off, want)
	var werr error
	a.Write(off, buf, func(err error) {
		werr = err
		end(err)
		for i := range buf {
			buf[i] = 0xEE
		}
	})
	a.Run()
	if werr != nil {
		t.Fatalf("write [%d,+%d): %v", off, len(want), werr)
	}
}

// expectParityCoherent scrubs the array and fails if any stripe's parity had
// to be rewritten: the bytes the drives hold are not the bytes parity was
// computed from.
func expectParityCoherent(t *testing.T, a *draid.Array, what string) {
	t.Helper()
	st, err := a.ScrubNow()
	if err != nil {
		t.Fatalf("%s: scrub: %v", what, err)
	}
	if st.ParityRepairs != 0 || st.Errors != 0 {
		t.Fatalf("%s: scrub repaired %d parity chunks, %d stripes unverifiable", what, st.ParityRepairs, st.Errors)
	}
}

// Run executes the full conformance suite against one backend.
func Run(t *testing.T, f Factory) {
	t.Run("HealthyRoundTrip", func(t *testing.T) {
		a, o := open(t, f, baseConfig())
		defer closeDrained(t, a, o)
		// Full-stripe, partial-stripe, and sub-chunk shapes.
		for _, c := range []struct{ off, n int64 }{
			{0, 64 << 10},        // full stripe
			{64 << 10, 20 << 10}, // stripe-crossing partial
			{200 << 10, 3000},    // sub-chunk, unaligned
		} {
			put(t, o, c.off, pattern(c.off, int(c.n)))
			o.Read(c.off, c.n)
		}
	})

	t.Run("ContextPreCancelled", func(t *testing.T) {
		a := f(t, baseConfig())
		defer a.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := a.WriteContext(ctx, 0, pattern(0, 4096)); !errors.Is(err, context.Canceled) {
			t.Fatalf("write on cancelled context: got %v, want context.Canceled", err)
		}
		if _, err := a.ReadContext(ctx, 0, 4096); !errors.Is(err, context.Canceled) {
			t.Fatalf("read on cancelled context: got %v, want context.Canceled", err)
		}
	})

	t.Run("ContextDeadlineOnCrashedDrive", func(t *testing.T) {
		cfg := baseConfig()
		cfg.OpDeadline = 30 * time.Second // far beyond the context budget
		a := f(t, cfg)
		defer a.Close()
		if err := a.WriteSync(0, pattern(0, 64<<10)); err != nil {
			t.Fatalf("priming write: %v", err)
		}
		// The host does not know the drive is gone; only the context bounds
		// the wait.
		a.CrashDrive(1)
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if err := a.WriteContext(ctx, 0, pattern(0, 64<<10)); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("write past context deadline: got %v, want context.DeadlineExceeded", err)
		}
	})

	t.Run("DegradedReadAndWrite", func(t *testing.T) {
		a, o := open(t, f, baseConfig())
		defer closeDrained(t, a, o)
		put(t, o, 0, pattern(0, 128<<10))
		a.FailDrive(1)
		o.Read(0, 128<<10) // reconstructed
		put(t, o, 1<<20, pattern(1<<20, 80<<10))
		o.Read(1<<20, 80<<10)
	})

	t.Run("RebuildRestoresRedundancy", func(t *testing.T) {
		a, o := open(t, f, baseConfig())
		defer closeDrained(t, a, o)
		put(t, o, 4096, pattern(4096, 96<<10))
		a.FailDrive(2)
		if err := a.RebuildDrive(2, 0); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if failed := a.Status().Failed; len(failed) != 0 {
			t.Fatalf("members still failed after rebuild: %v", failed)
		}
		// The rebuilt member must carry real redundancy: fail a different
		// drive and reconstruct through the rebuilt one.
		a.FailDrive(0)
		o.Read(4096, 96<<10)
	})

	t.Run("DoubleFaultFails", func(t *testing.T) {
		a, o := open(t, f, baseConfig())
		defer closeDrained(t, a, o)
		put(t, o, 0, pattern(0, 64<<10))
		a.FailDrive(0)
		a.FailDrive(1)
		if _, err := a.ReadSync(0, 64<<10); !errors.Is(err, draid.ErrIO) {
			t.Fatalf("read past the parity budget: got %v, want an ErrIO chain", err)
		}
	})

	t.Run("Raid6DoubleDegradedIO", func(t *testing.T) {
		// Two members down is inside RAID-6's parity budget: every write
		// shape is accepted and every byte reads back, solved on the host,
		// and both members rebuild to a coherent array.
		cfg := baseConfig()
		cfg.Level = draid.Raid6
		cfg.Drives = 6 // 4 data chunks of 16 KiB per stripe
		a, o := open(t, f, cfg)
		defer closeDrained(t, a, o)
		put(t, o, 0, pattern(0, 256<<10)) // four stripes
		a.FailDrive(1)
		a.FailDrive(4)
		for _, c := range []struct{ off, n int64 }{
			{1000, 4 << 10},            // partial, inside one chunk
			{16<<10 - 3000, 9000},      // straddling two chunks
			{64 << 10, 64 << 10},       // full stripe
			{128<<10 + 5000, 40 << 10}, // most of a stripe
			{192<<10 - 8000, 24 << 10}, // crossing a stripe boundary
			{192<<10 + 30000, 5 << 10}, // partial, second pass over a stripe
		} {
			put(t, o, c.off, pattern(c.off+3, int(c.n))) // +3: differs from the primer
			o.Read(c.off, c.n)
		}
		o.Read(0, 256<<10)
		// Stripe 1 keeps its P on drive 4 and data chunk 1 on drive 1: a read
		// of that chunk is reconstructed on a peer through Q, not gathered to
		// the host.
		gathers := a.Status().Counters.HostFallbackReads
		o.Read(80<<10, 16<<10) // a data chunk lost together with its P
		if n := a.Status().Counters.HostFallbackReads - gathers; n != 0 {
			t.Fatalf("data+P degraded read took %d host gathers, want the Q-scaled peer reduction", n)
		}
		for _, d := range []int{1, 4} {
			if err := a.RebuildDrive(d, 0); err != nil {
				t.Fatalf("rebuild of drive %d: %v", d, err)
			}
		}
		if failed := a.Status().Failed; len(failed) != 0 {
			t.Fatalf("members still failed after both rebuilds: %v", failed)
		}
		expectParityCoherent(t, a, "after both rebuilds")
		o.Read(0, 256<<10)
	})

	t.Run("MediaErrorRepairOnRead", func(t *testing.T) {
		cfg := baseConfig()
		cfg.Integrity = true
		a, o := open(t, f, cfg)
		defer closeDrained(t, a, o)
		put(t, o, 0, pattern(0, 128<<10))
		// Stay within one chunk: a range crossing members of one stripe
		// would be a genuine double fault on every backend.
		if err := a.Inject().MediaError(8<<10, 4<<10); err != nil {
			t.Fatalf("inject media error: %v", err)
		}
		o.Read(0, 128<<10) // reconstructed
	})

	t.Run("BitRotCaughtByIntegrity", func(t *testing.T) {
		cfg := baseConfig()
		cfg.Integrity = true
		a, o := open(t, f, cfg)
		defer closeDrained(t, a, o)
		put(t, o, 0, pattern(0, 64<<10))
		if err := a.Inject().BitRot(4<<10, 8<<10); err != nil {
			t.Fatalf("inject bit rot: %v", err)
		}
		o.Read(0, 64<<10) // checksums trigger reconstruction
	})

	t.Run("SlowDriveHedgedRead", func(t *testing.T) {
		cfg := baseConfig()
		cfg.Hedge = draid.HedgeConfig{Policy: draid.HedgeFixedDelay, Delay: 10 * time.Millisecond}
		a, o := open(t, f, cfg)
		defer closeDrained(t, a, o)
		// Four stripes, so member 1 serves data chunks in several of them no
		// matter where the parity rotation places it.
		put(t, o, 0, pattern(0, 256<<10))
		// Member 1 now stalls for the full 2s of every 2s cycle: any chunk
		// read it serves lands seconds late. The hedge must solve k-of-n
		// through parity well inside the context budget instead of waiting
		// out the straggler.
		if err := a.Inject().SlowDrive(1, draid.SlowProfile{
			Kind: draid.SlowStall, Stall: 2 * time.Second, Period: 2 * time.Second,
		}); err != nil {
			t.Fatalf("inject slow drive: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		o.BeginRead(0, 256<<10)(a.ReadContext(ctx, 0, 256<<10))
		if a.Status().Counters.HedgedReads == 0 {
			t.Fatal("read completed without hedging; expected a hedged parity solve")
		}
	})

	t.Run("WritebackStagedCrashRecovery", func(t *testing.T) {
		cfg := baseConfig()
		cfg.WriteBack = true
		cfg.StageMB = 1
		cfg.CacheMB = 1
		a, o := open(t, f, cfg)
		defer closeDrained(t, a, o)
		put(t, o, 0, pattern(0, 128<<10))
		if err := a.Flush(); err != nil {
			t.Fatalf("priming flush: %v", err)
		}
		// Sub-stripe writes acknowledged from the staging buffer; some may
		// still be staged (or mid-destage) when the controller dies.
		for _, c := range []struct{ off, n int64 }{
			{4 << 10, 6 << 10},   // sub-chunk
			{70 << 10, 9 << 10},  // chunk-crossing partial
			{100 << 10, 2 << 10}, // second write into the same stripe
		} {
			put(t, o, c.off, pattern(c.off+1, int(c.n))) // +1: differs from the primer
		}
		// Kill the controller; the replacement adopts the intent log, fences
		// the dead session, and resyncs — zero acknowledged writes may be
		// lost.
		if _, err := a.FailoverHost(); err != nil {
			t.Fatalf("host failover: %v", err)
		}
		o.Read(0, 128<<10)
		// Destage everything and read back from the drives proper.
		if err := a.Flush(); err != nil {
			t.Fatalf("flush after failover: %v", err)
		}
		o.Read(0, 128<<10)
	})

	t.Run("DeclusteredCrashAndRebuild", func(t *testing.T) {
		// Width-3 parity groups declustered over 5 physical drives: a drive
		// crash must be survivable and the many-to-many rebuild (relocation
		// into distributed spare slots, no spare endpoint) must restore
		// redundancy identically on every backend.
		cfg := baseConfig()
		cfg.Drives = 3
		cfg.Declustered = true
		cfg.ClusterDrives = 5
		a, o := open(t, f, cfg)
		defer closeDrained(t, a, o)
		put(t, o, 0, pattern(0, 160<<10))
		a.FailDrive(2)
		o.Read(0, 160<<10)
		if err := a.RebuildDrive(2, 0); err != nil {
			t.Fatalf("declustered rebuild: %v", err)
		}
		// Redundancy must be whole again: a second failure on a different
		// drive reconstructs through the relocated chunks.
		a.FailDrive(4)
		o.Read(0, 160<<10)
	})

	t.Run("PartitionedHostFailover", func(t *testing.T) {
		// The tentpole robustness scenario: the host is partitioned from every
		// drive mid-workload, a replacement seizes the volume at a higher
		// epoch, the partition heals — and no acknowledged write may be lost,
		// while nothing the stale host attempted may surface after takeover.
		cfg := baseConfig()
		cfg.EpochFencing = true
		cfg.HostLease = 50 * time.Millisecond
		cfg.WriteBack = true
		cfg.StageMB = 1
		cfg.OpDeadline = 50 * time.Millisecond
		a, o := open(t, f, cfg)
		defer closeDrained(t, a, o)
		put(t, o, 0, pattern(0, 128<<10))
		if err := a.Flush(); err != nil {
			t.Fatalf("priming flush: %v", err)
		}
		if err := a.Inject().IsolateHost(); err != nil {
			if errors.Is(err, draid.ErrUnsupported) {
				t.Skipf("backend does not support partition injection: %v", err)
			}
			t.Fatalf("isolate host: %v", err)
		}
		// A sub-stripe write is acknowledged from the staging buffer even
		// while the fabric is cut; its destages fail until takeover. Once
		// acknowledged it must survive everything that follows.
		put(t, o, 4<<10, pattern(5<<10, 6<<10))
		// A full-stripe write goes write-through into the cut fabric and must
		// fail — never be silently dropped as acknowledged, nor land: the
		// oracle keeps the stripe's old bytes. (The exact error depends on
		// what the partition starved first: a plain op timeout, or a
		// degraded-path failure after timeouts struck members out.)
		if err := a.WriteSync(64<<10, pattern(1, 64<<10)); err == nil {
			t.Fatal("write-through during partition unexpectedly succeeded")
		}
		if err := a.Inject().HealHostIsolation(); err != nil {
			t.Fatalf("heal partition: %v", err)
		}
		// The replacement seizes the volume without crashing the predecessor:
		// the epoch bump plus the servers' stale-epoch rejections are what
		// fence the zombie out.
		if _, err := a.SeizeHost(); err != nil {
			t.Fatalf("seize host: %v", err)
		}
		if got := a.Status().Epoch; got != 2 {
			t.Fatalf("replacement epoch: got %d, want 2", got)
		}
		if err := a.Flush(); err != nil {
			t.Fatalf("flush after takeover: %v", err)
		}
		o.Read(0, 128<<10)
	})

	t.Run("DeclusteredRaid6RebuildThroughQ", func(t *testing.T) {
		// Double fault on a declustered RAID-6 volume: reads must solve
		// through P+Q, and the many-to-many rebuild must relocate both failed
		// drives' chunks — Q parity included — into distributed spare slots,
		// leaving redundancy whole enough to survive two further failures.
		cfg := baseConfig()
		cfg.Level = draid.Raid6
		cfg.Drives = 4
		cfg.Declustered = true
		cfg.ClusterDrives = 7
		a, o := open(t, f, cfg)
		defer closeDrained(t, a, o)
		put(t, o, 0, pattern(0, 160<<10))
		a.FailDrive(1)
		a.FailDrive(3)
		o.Read(0, 160<<10) // solved through P+Q
		if err := a.RebuildDrive(1, 0); err != nil {
			t.Fatalf("rebuild first failed drive: %v", err)
		}
		if err := a.RebuildDrive(3, 0); err != nil {
			t.Fatalf("rebuild second failed drive: %v", err)
		}
		// Redundancy must be fully restored: two fresh failures reconstruct
		// through the relocated chunks (Q among them).
		a.FailDrive(0)
		a.FailDrive(4)
		o.Read(0, 160<<10)
	})

	t.Run("AckedWriteSurvivesBufferReuse", func(t *testing.T) {
		// Payload ownership, write side: once a write is acknowledged the
		// caller's buffer is the caller's again. Full-stripe writes (plain
		// Write capsules, host-side parity) with every capsule duplicated and
		// every drive stalling: the duplicate and the stalled original read
		// their payload after the ack, and must not see the scribble.
		a, o := open(t, f, baseConfig())
		defer closeDrained(t, a, o)
		put(t, o, 0, pattern(0, 256<<10))
		stallDrives(t, a)
		for i, n := 0, a.Status().Drives; i < n; i++ {
			if err := a.Inject().DuplicateNext(i); err != nil {
				t.Fatalf("arm duplicate on member %d: %v", i, err)
			}
		}
		writeAndScribble(t, a, o, 64<<10, pattern(7, 128<<10))
		calm(t, a)
		o.Read(64<<10, 128<<10)
		expectParityCoherent(t, a, "after scribble")
	})

	t.Run("ReadBufferIsNeverRecycled", func(t *testing.T) {
		// Payload ownership, read side: the buffer a read returns belongs to
		// the caller for good. Drive-read buffers are recycled underneath;
		// a result that aliased one would change under the next reads.
		a, o := open(t, f, baseConfig())
		defer closeDrained(t, a, o)
		want := pattern(0, 64<<10)
		put(t, o, 0, want)
		held := o.Read(0, 64<<10)
		put(t, o, 0, pattern(3, 64<<10))
		for i := 0; i < 1000; i++ {
			o.Read(int64(i%4)*(16<<10), 16<<10)
		}
		if !bytes.Equal(held, want) {
			t.Fatal("a buffer returned by Read changed under later reads")
		}
	})

	t.Run("InPlaceFoldsOwnTheirBuffers", func(t *testing.T) {
		// The servers fold new data and peer contributions into drive-read
		// buffers in place (RMW deltas, degraded-read reductions); that is
		// only sound if each such buffer has one owner. Same scribble-after-
		// ack pattern, on the paths that fold.
		geo := raid.Geometry{Level: raid.Raid5, Width: baseConfig().Drives, ChunkSize: baseConfig().ChunkSize}
		scenario := func(name string, run func(t *testing.T, a *draid.Array, o *oracle.Oracle)) {
			t.Run(name, func(t *testing.T) {
				a, o := open(t, f, baseConfig())
				defer closeDrained(t, a, o)
				put(t, o, 0, pattern(0, 256<<10))
				run(t, a, o)
			})
		}
		scenario("RMW", func(t *testing.T, a *draid.Array, o *oracle.Oracle) {
			// The sub-chunk write lands in chunk 0 of stripe 1: duplicate the
			// PartialWrite capsule to the bdev holding it, so the old data is
			// read, folded in place and forwarded twice, the second time
			// around or after the ack. The reducer folds the delta once and
			// drops the second, as it drops one arriving after the reduction
			// ended; the second completion the host does not owe and drops.
			for round := int64(0); round < 3; round++ {
				stallDrives(t, a)
				duplicateCommand(t, a, geo.DataDrive(1, 0))
				writeAndScribble(t, a, o, 70<<10, pattern(11+round, 3000))
				calm(t, a)
				o.Read(0, 256<<10)
				expectParityCoherent(t, a, "after RMW")
			}
		})
		scenario("Degraded", func(t *testing.T, a *draid.Array, o *oracle.Oracle) {
			a.FailDrive(1)
			stallDrives(t, a)
			got := o.Read(0, 256<<10)
			for i := range got {
				got[i] = 0xEE // the result is the caller's: scribbling it must reach no one
			}
			writeAndScribble(t, a, o, 20<<10, pattern(31, 5000)) // degraded read-modify-write
			calm(t, a)
			o.Read(0, 256<<10)
		})
	})

	t.Run("FailedPreloadFreesAccumulatorOnce", func(t *testing.T) {
		// A read-modify-write whose Parity anchor is duplicated and whose
		// stored parity is unreadable: the second anchor is dropped — one
		// preload, one failure — and the reduction ends failed once the data
		// bdev's contribution is in, before or after: its accumulator
		// returned, its table slot dropped, exactly once. The host re-drives
		// the stripe through its fallback write. The closing leak check is the
		// assertion: a second end would return the accumulator twice and drive
		// the server's counts negative, a missed one leave the reduction open.
		cfg := baseConfig()
		geo := raid.Geometry{Level: raid.Raid5, Width: cfg.Drives, ChunkSize: cfg.ChunkSize}
		a, o := open(t, f, cfg)
		defer closeDrained(t, a, o)
		put(t, o, 0, pattern(0, 256<<10))
		p := geo.PDrive(1)
		a.Cluster().Drives[p].InjectMediaError(geo.DriveOffset(1), geo.ChunkSize)
		duplicateCommand(t, a, p)
		writeAndScribble(t, a, o, 70<<10, pattern(41, 3000)) // chunk 0 of stripe 1
		calm(t, a)
		o.Read(0, 256<<10)
		expectParityCoherent(t, a, "after the re-driven write")
	})

	t.Run("RebuildDriveRejectsBadArguments", func(t *testing.T) {
		// A rebuild of a drive that is healthy, does not exist, or is already
		// rebuilding is refused on every layout and backend, and refused
		// before anything moves: no drive written, no chunk relocated, no
		// drive retired. The rebuild under way is not disturbed by the refusal
		// — nor by losing its host controller.
		declustered := baseConfig()
		declustered.Drives, declustered.ClusterDrives, declustered.Declustered = 3, 5, true
		for name, cfg := range map[string]draid.Config{"fixed": baseConfig(), "declustered": declustered} {
			t.Run(name, func(t *testing.T) {
				a, o := open(t, f, cfg)
				defer closeDrained(t, a, o)
				put(t, o, 0, pattern(0, 160<<10))
				writes := func() (n int64) {
					for _, d := range a.Cluster().Drives {
						n += d.Stats().WriteOps
					}
					return n
				}
				before := writes()
				drives := a.Status().Drives
				for drive, want := range map[int]string{2: "draid: drive 2 is not failed", -1: "out of range", drives: "out of range"} {
					if err := a.RebuildDrive(drive, 0); err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("RebuildDrive(%d) = %v, want an error containing %q", drive, err, want)
					}
				}
				if err := a.RebuildDrive(drives, 0); !errors.Is(err, draid.ErrOutOfRange) {
					t.Fatalf("out-of-range rebuild: %v does not wrap ErrOutOfRange", err)
				}
				if st := a.Status(); st.Counters.RebuiltStripes != 0 || writes() != before || len(st.Failed) != 0 {
					t.Fatalf("rejected rebuilds touched the array: %d relocated, %d drive writes (was %d), failed %v",
						st.Counters.RebuiltStripes, writes(), before, st.Failed)
				}
				// The healthy drive was not retired or drained behind our back:
				// once it really fails, its chunks are all there to rebuild.
				a.FailDrive(2)
				if err := a.RebuildDrive(2, 0); err != nil {
					t.Fatalf("rebuild after a real failure: %v", err)
				}
				if n := a.Status().Counters.RebuiltStripes; n == 0 {
					t.Fatal("rebuild after a real failure relocated no chunks")
				}
				o.Read(0, 160<<10)
			})
			// The other cases start part-way through a supervised, throttled
			// rebuild of drive 1, and end with it finished all the same.
			rebuilding := func(t *testing.T) (*draid.Array, *oracle.Oracle) {
				cfg.Spares, cfg.RebuildRateMBps = 1, 20
				a, o := open(t, f, cfg)
				put(t, o, 0, pattern(0, 160<<10))
				a.FailDrive(1)
				a.RunFor(2 * time.Millisecond)
				if !a.Status().Rebuild.Active {
					t.Fatal("test setup: the supervised rebuild is not in flight")
				}
				return a, o
			}
			// The recovery log tells the same story on every backend: the
			// failure, the rebuild's start and its end, in that order.
			finished := func(t *testing.T, a *draid.Array, o *oracle.Oracle, how string) {
				a.Run()
				st := a.Status()
				if st.Rebuild.Active || st.Rebuild.Done != st.Rebuild.Total {
					t.Fatalf("supervised rebuild did not survive %s: %+v\n%v", how, st.Rebuild, st.Events)
				}
				want := []string{"failed", "rebuild-start", "rebuild-done"}
				for _, e := range st.Events {
					if len(want) > 0 && e.Member == 1 && e.Kind == want[0] {
						want = want[1:]
					}
				}
				if len(want) > 0 {
					t.Fatalf("recovery log after %s lacks %q in order:\n%v", how, want, st.Events)
				}
				o.Read(0, 160<<10)
			}
			t.Run(name+"-already-rebuilding", func(t *testing.T) {
				a, o := rebuilding(t)
				defer closeDrained(t, a, o)
				if err := a.RebuildDrive(1, 0); err == nil || !strings.Contains(err.Error(), "drive 1 is already rebuilding") {
					t.Fatalf("RebuildDrive of a rebuilding drive = %v, want already-rebuilding", err)
				}
				finished(t, a, o, "the rejected call")
			})
			t.Run(name+"-failover-mid-rebuild", func(t *testing.T) {
				// The host crashes under the walk — between two chunks or in
				// the middle of one — and the replacement that adopts the
				// array carries the same rebuild to its end.
				a, o := rebuilding(t)
				defer closeDrained(t, a, o)
				if _, err := a.FailoverHost(); err != nil {
					t.Fatalf("failover: %v", err)
				}
				finished(t, a, o, "the host failover")
			})
		}
	})

	t.Run("OutOfRange", func(t *testing.T) {
		a, o := open(t, f, baseConfig())
		defer closeDrained(t, a, o)
		if _, err := a.ReadSync(a.Size(), 4096); !errors.Is(err, draid.ErrOutOfRange) {
			t.Fatalf("read past device: got %v, want ErrOutOfRange", err)
		}
		if err := a.WriteSync(a.Size()-1024, pattern(0, 4096)); !errors.Is(err, draid.ErrOutOfRange) {
			t.Fatalf("write past device: got %v, want ErrOutOfRange", err)
		}
	})
}
