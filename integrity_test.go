package draid_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"draid"
	"draid/internal/chaos"
	"draid/internal/core"
	"draid/internal/oracle"
)

// integrityArray builds a small array with end-to-end checksums on.
func integrityArray(t *testing.T, cfg draid.Config) *draid.Array {
	t.Helper()
	cfg.Integrity = true
	if cfg.DriveCapacity == 0 {
		cfg.DriveCapacity = 1 << 20
	}
	return smallArray(t, cfg)
}

// arrayOracle models arr's whole device; a broken promise fails t.
func arrayOracle(t *testing.T, arr *draid.Array) *oracle.Oracle {
	geo := arr.Controller().Geometry()
	o := oracle.New(chaos.Device(arr), arr.Size(), geo.StripeDataSize(), geo.Level.ParityCount())
	o.Report = func(v oracle.Violation) { t.Fatal(v) }
	return o
}

// mustPut writes data at off under the oracle; the write must be
// acknowledged.
func mustPut(t *testing.T, o *oracle.Oracle, off int64, data []byte) {
	t.Helper()
	if err := o.Write(off, data); err != nil {
		t.Fatalf("write [%d,+%d): %v", off, len(data), err)
	}
}

// fresh returns a source of random payloads for the oracle's repair writes.
func fresh(seed int64) func(int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	return func(n int64) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
}

// mustInject fails the test when a fault injection is refused.
func mustInject(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
}

// TestScrubRepairsBitRot is the scrub smoke test: silent corruption planted
// under a virtual range is found by an on-demand pass, repaired in place, and
// a second pass finds nothing.
func TestScrubRepairsBitRot(t *testing.T) {
	arr := integrityArray(t, draid.Config{Seed: 5})
	ref := randBytes(9, int(arr.Size()))
	if err := arr.WriteSync(0, ref); err != nil {
		t.Fatal(err)
	}
	mustInject(t, arr.Inject().BitRot(100<<10, 8<<10))

	st, err := arr.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if st.MediaRepairs == 0 {
		t.Fatalf("scrub found no media repairs: %+v", st)
	}
	if st.ScrubbedStripes == 0 || st.Errors != 0 {
		t.Fatalf("scrub pass unhealthy: %+v", st)
	}

	got, err := arr.ReadSync(0, arr.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("data corrupt after scrub repair")
	}

	st2, err := arr.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if st2.MediaRepairs != st.MediaRepairs || st2.ParityRepairs != st.ParityRepairs {
		t.Fatalf("second scrub pass found more damage: %+v then %+v", st, st2)
	}
}

// TestScrubBackgroundPass proves the periodic scrubber repairs latent media
// errors no foreground read ever touches, entirely on background timers.
func TestScrubBackgroundPass(t *testing.T) {
	arr := integrityArray(t, draid.Config{
		Seed:          6,
		ScrubInterval: time.Millisecond,
	})
	ref := randBytes(10, int(arr.Size()))
	if err := arr.WriteSync(0, ref); err != nil {
		t.Fatal(err)
	}
	mustInject(t, arr.Inject().MediaError(300<<10, 4<<10))

	// Nothing reads the damaged range; only the background pass can find it.
	arr.RunFor(10 * time.Millisecond)
	st := arr.Status().Scrub
	if !st.Enabled {
		t.Fatal("scrubber not enabled despite ScrubInterval")
	}
	if st.Passes == 0 {
		t.Fatalf("no background pass completed in 10ms: %+v", st)
	}
	if st.MediaRepairs == 0 {
		t.Fatalf("background scrub missed the injected media error: %+v", st)
	}

	got, err := arr.ReadSync(0, arr.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("data corrupt after background scrub")
	}
	if arr.Status().Counters.MediaErrors == 0 {
		t.Fatal("host never saw a media-error completion")
	}
}

// TestScrubEventsInRecoveryLog checks scrub life-cycle events land in the
// array's recovery log alongside detection/rebuild milestones.
func TestScrubEventsInRecoveryLog(t *testing.T) {
	arr := integrityArray(t, draid.Config{Seed: 7, ScrubInterval: time.Millisecond})
	ref := randBytes(11, 256<<10)
	if err := arr.WriteSync(0, ref); err != nil {
		t.Fatal(err)
	}
	mustInject(t, arr.Inject().BitRot(64<<10, 4<<10))
	arr.RunFor(10 * time.Millisecond)

	kinds := map[string]int{}
	for _, e := range arr.Status().Events {
		kinds[e.Kind]++
	}
	if kinds["scrub-pass"] == 0 {
		t.Fatalf("no scrub-pass event in recovery log: %v", kinds)
	}
	if kinds["scrub-repair"] == 0 {
		t.Fatalf("no scrub-repair event in recovery log: %v", kinds)
	}
}

// TestRepairOnRead proves a normal read through detected corruption succeeds
// via reconstruction AND heals the drive: the damage is gone afterwards. On a
// declustered layout the reporting drive's index is not its index in the
// stripe; recovery must erase the member that reported, not its namesake.
func TestRepairOnRead(t *testing.T) {
	for name, cfg := range map[string]draid.Config{
		"fixed":       {Seed: 8},
		"declustered": {Drives: 4, ClusterDrives: 8, Declustered: true, Seed: 8},
	} {
		t.Run(name, func(t *testing.T) {
			arr := integrityArray(t, cfg)
			ref := randBytes(12, 512<<10)
			if err := arr.WriteSync(0, ref); err != nil {
				t.Fatal(err)
			}

			mustInject(t, arr.Inject().BitRot(40<<10, 12<<10))
			got, err := arr.ReadSync(32<<10, 32<<10)
			if err != nil {
				t.Fatalf("read through bit rot: %v", err)
			}
			if !bytes.Equal(got, ref[32<<10:64<<10]) {
				t.Fatal("reconstructed read returned wrong bytes")
			}
			if arr.Status().Counters.MediaErrors == 0 {
				t.Fatal("checksum mismatch never surfaced as a media error")
			}
			arr.Run() // let the fire-and-forget in-place repair drain
			if arr.Status().Counters.RepairedRanges == 0 {
				t.Fatal("no in-place repair recorded")
			}

			// The repair rewrote the damaged sectors: a clean scrub proves it.
			st, err := arr.ScrubNow()
			if err != nil {
				t.Fatal(err)
			}
			if st.MediaRepairs != 0 {
				t.Fatalf("damage survived repair-on-read: %+v", st)
			}
		})
	}
}

// TestMediaErrorDegradedRead layers a latent sector error on top of a failed
// drive: RAID-6 still reconstructs through the second parity.
func TestMediaErrorDegradedRead(t *testing.T) {
	arr := integrityArray(t, draid.Config{Level: draid.Raid6, Drives: 6, Seed: 9})
	ref := randBytes(13, 512<<10)
	if err := arr.WriteSync(0, ref); err != nil {
		t.Fatal(err)
	}
	mustInject(t, arr.Inject().MediaError(8<<10, 4<<10))
	arr.FailDrive(arr.Controller().Geometry().DataDrive(0, 1))

	got, err := arr.ReadSync(0, 256<<10)
	if err != nil {
		t.Fatalf("degraded read across a URE: %v", err)
	}
	if !bytes.Equal(got, ref[:256<<10]) {
		t.Fatal("degraded read across a URE returned wrong bytes")
	}
}

// TestMediaDoubleFaultTyped drives RAID-5 past its parity budget with two
// latent errors in one stripe and checks the failure is typed, not silent.
func TestMediaDoubleFaultTyped(t *testing.T) {
	arr := integrityArray(t, draid.Config{Seed: 10})
	geo := arr.Controller().Geometry()
	ref := randBytes(14, int(geo.StripeDataSize()))
	if err := arr.WriteSync(0, ref); err != nil {
		t.Fatal(err)
	}
	// Two different data chunks of stripe 0: reconstruction needs both.
	mustInject(t, arr.Inject().MediaError(4<<10, 4<<10))
	mustInject(t, arr.Inject().MediaError(geo.ChunkSize+4<<10, 4<<10))

	_, err := arr.ReadSync(0, geo.StripeDataSize())
	if err == nil {
		t.Fatal("read across a media double fault returned data")
	}
	if !errors.Is(err, draid.ErrMediaError) || !errors.Is(err, draid.ErrDoubleFault) {
		t.Fatalf("double-fault error %v does not match both ErrMediaError and ErrDoubleFault", err)
	}
}

// rebuildWithURE seeds a full device, plants sector errors on survivor
// chunks, fails a member, and rebuilds it in place.
func rebuildWithURE(t *testing.T, cfg draid.Config, seed int64) (*draid.Array, *oracle.Oracle, int) {
	t.Helper()
	cfg.Seed = seed
	arr := integrityArray(t, cfg)
	o := arrayOracle(t, arr)
	ref := randBytes(seed+100, int(arr.Size()))
	geo := arr.Controller().Geometry()
	for off := int64(0); off < arr.Size(); off += geo.StripeDataSize() {
		mustPut(t, o, off, ref[off:off+geo.StripeDataSize()])
	}
	// One URE per chosen stripe, always on data chunk 0 (rotation spreads
	// them over drives); every survivor chunk is read during rebuild, so
	// each is guaranteed to be hit.
	for _, s := range []int64{0, 3, 7} {
		mustInject(t, arr.Inject().MediaError(s*geo.StripeDataSize()+int64(seed%4)<<10, 4<<10))
	}
	member := geo.DataDrive(0, 1)
	arr.FailDrive(member)
	if err := arr.RebuildDrive(member, 0); err != nil {
		t.Fatalf("rebuild across UREs: %v", err)
	}
	return arr, o, member
}

// TestIntegrityTortureRebuildURE is the URE-during-rebuild matrix across
// seeds: RAID-6 reconstructs through Q and loses nothing; RAID-5 records the
// affected ranges as lost instead of wedging, keeps serving everything else,
// and clears the holes on rewrite.
func TestIntegrityTortureRebuildURE(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("raid6/seed=%d", seed), func(t *testing.T) {
			arr, o, _ := rebuildWithURE(t, draid.Config{Level: draid.Raid6, Drives: 6}, seed)
			if lost := arr.Status().Lost; len(lost) != 0 {
				t.Fatalf("RAID-6 rebuild lost data despite double parity: %v", lost)
			}
			o.Sweep() // no loss expected: every read must answer
			o.Quiesce()
		})
		t.Run(fmt.Sprintf("raid5/seed=%d", seed), func(t *testing.T) {
			arr, o, _ := rebuildWithURE(t, draid.Config{Level: draid.Raid5, Drives: 5}, seed)
			if len(arr.Status().Lost) == 0 {
				t.Fatal("RAID-5 rebuild across UREs recorded no lost regions")
			}
			o.ExpectLoss()
			// Reads clear of lost regions read back byte-exact; reads
			// overlapping one fail fast with the typed error. Rewriting the
			// holes clears them.
			if o.Sweep() == 0 {
				t.Fatal("no read failed over a lost region")
			}
			o.Heal(fresh(seed + 200))
			o.Quiesce()
		})
	}
}

// TestIntegrityTortureScrubUnderWrites runs random foreground I/O with
// corruption injected throughout while the background scrubber trickles
// along, across seeds. Reads must either return model-exact bytes or fail
// with the typed media error over a recorded lost region (a URE landing in
// an aborted write's hole is honestly unrecoverable) — injected damage is
// never silently served to a reader.
func TestIntegrityTortureScrubUnderWrites(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			arr := integrityArray(t, draid.Config{
				Level: draid.Raid6, Drives: 6,
				ChunkSize:     32 << 10,
				Seed:          seed,
				ScrubInterval: 500 * time.Microsecond,
				ScrubRateMBps: 8000,
			})
			size := arr.Size()
			o := arrayOracle(t, arr)
			o.ExpectLoss()
			rng := rand.New(rand.NewSource(seed * 77))
			mustPut(t, o, 0, randBytes(seed, int(size)))

			for iter := 0; iter < 40; iter++ {
				// Corrupt a random already-written range, alternating silent
				// rot (caught by checksum) with hard sector errors.
				cOff := rng.Int63n(size - 8<<10)
				cLen := int64(1+rng.Intn(8)) << 10
				if iter%2 == 0 {
					mustInject(t, arr.Inject().BitRot(cOff, cLen))
				} else {
					mustInject(t, arr.Inject().MediaError(cOff, cLen))
				}
				// Random foreground write.
				wLen := int64(1+rng.Intn(64)) << 10
				wOff := rng.Int63n(size - wLen)
				data := make([]byte, wLen)
				rng.Read(data)
				mustPut(t, o, wOff, data)
				// Random foreground read, model-checked.
				rLen := int64(1+rng.Intn(64)) << 10
				o.Read(rng.Int63n(size-rLen), rLen)
				// Let background scrub passes interleave with the workload.
				arr.RunFor(200 * time.Microsecond)
			}

			arr.RunFor(5 * time.Millisecond) // final passes sweep leftovers
			st := arr.Status().Scrub
			if st.Passes == 0 {
				t.Fatalf("no background scrub pass completed: %+v", st)
			}
			if lost := arr.Status().Lost; len(lost) != 0 {
				t.Logf("write-hole losses (reported, never served): %v", lost)
			}
			o.Heal(fresh(seed + 101))
			o.Quiesce()
		})
	}
}

// TestIntegrityTortureLatentErrors turns on spontaneous URE development and
// hammers reads: every read must return exact bytes or fail typed when UREs
// pile past the parity budget, and the scrubber plus repair-on-read must
// keep burning down the backlog.
func TestIntegrityTortureLatentErrors(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			arr := integrityArray(t, draid.Config{
				Level: draid.Raid6, Drives: 6,
				Seed:          seed,
				ScrubInterval: time.Millisecond,
			})
			size := arr.Size()
			o := arrayOracle(t, arr)
			o.ExpectLoss()
			mustPut(t, o, 0, randBytes(seed+50, int(size)))
			mustInject(t, arr.Inject().LatentErrorRate(0.02))
			rng := rand.New(rand.NewSource(seed * 13))
			for iter := 0; iter < 60; iter++ {
				// UREs developing on three chunks of one stripe faster than
				// repair burns them down exceed even RAID-6's budget; the
				// failure must be typed, never garbage.
				n := int64(1+rng.Intn(32)) << 10
				o.Read(rng.Int63n(size-n), n)
			}
			mustInject(t, arr.Inject().LatentErrorRate(0))
			arr.RunFor(5 * time.Millisecond)
			o.Heal(fresh(seed + 101))
			o.Quiesce()
		})
	}
}

// TestIntegrityTortureHedgedReads races hedged reads against everything at
// once: a grey member whose chunk reads the hedger routinely abandons, bit
// rot and media errors landing anywhere — including on that same straggler,
// where the abandoned primary was also the URE victim and the parity solve
// must still produce exact bytes, never stale or zero data — the background
// scrubber repairing damage underneath, and a mid-run fail-stop crash whose
// hot-spare rebuild overlaps the remaining iterations. Every read verifies
// against a byte model or fails typed over a recorded lost region.
func TestIntegrityTortureHedgedReads(t *testing.T) {
	policies := []draid.HedgeConfig{
		{Policy: draid.HedgeFixedDelay, Delay: 100 * time.Microsecond},
		{Policy: draid.HedgeAdaptiveP95, MinSamples: 8},
	}
	for _, hc := range policies {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed=%d", hc.Policy, seed), func(t *testing.T) {
				arr := integrityArray(t, draid.Config{
					Level: draid.Raid6, Drives: 6,
					ChunkSize:     16 << 10,
					Spares:        1,
					Seed:          seed,
					Hedge:         hc,
					ScrubInterval: 500 * time.Microsecond,
					ScrubRateMBps: 8000,
					Health: draid.HealthConfig{
						Detect:         true,
						HeartbeatEvery: time.Millisecond,
						// Keep the grey member in service: this torture wants
						// hedges firing start to finish, not an early eviction.
						EvictAfter: -1,
					},
					RebuildRateMBps: 400,
				})
				size := arr.Size()
				o := arrayOracle(t, arr)
				o.ExpectLoss()
				rng := rand.New(rand.NewSource(seed * 131))
				mustPut(t, o, 0, randBytes(seed, int(size)))
				if err := arr.Inject().SlowDrive(2, draid.SlowProfile{
					Kind: draid.SlowConstant, Factor: 25,
				}); err != nil {
					t.Fatalf("inject slow drive: %v", err)
				}

				for iter := 0; iter < 40; iter++ {
					cOff := rng.Int63n(size - 8<<10)
					cLen := int64(1+rng.Intn(8)) << 10
					if iter%2 == 0 {
						mustInject(t, arr.Inject().BitRot(cOff, cLen))
					} else {
						mustInject(t, arr.Inject().MediaError(cOff, cLen))
					}
					// Read straight over the fresh damage: if the damaged chunk
					// lives on the grey member, the hedge abandons the very read
					// that would have reported the URE — the solve (or the
					// repair-on-read it stands down for) must still be exact.
					o.Read(cOff&^4095, 8<<10)
					wLen := int64(1+rng.Intn(64)) << 10
					wOff := rng.Int63n(size - wLen)
					data := make([]byte, wLen)
					rng.Read(data)
					mustPut(t, o, wOff, data)
					rLen := int64(1+rng.Intn(64)) << 10
					o.Read(rng.Int63n(size-rLen), rLen)
					if iter == 15 {
						// Fail-stop a healthy member (not the grey one): the
						// heartbeat prober detects it and the hot-spare rebuild
						// runs under the rest of the loop.
						arr.CrashDrive(4)
					}
					arr.RunFor(200 * time.Microsecond)
				}

				arr.RunFor(20 * time.Millisecond) // rebuild + final scrub passes drain
				if st := arr.Status().Rebuild; st.Active {
					t.Fatalf("rebuild still active at end: %+v", st)
				}
				if got := arr.Status().Failed; len(got) != 0 {
					t.Fatalf("failed drives after rebuild = %v, want none", got)
				}
				if arr.Status().Counters.HedgedReads == 0 {
					t.Fatal("torture ran without a single hedged read; injection or policy wiring broken")
				}
				o.Heal(fresh(seed + 101))
				o.Quiesce()
			})
		}
	}
}

// TestWireCorruptionRetries is the end-to-end link-corruption proof: frames
// corrupted in flight are caught by the transport checksum and dropped at
// the receiving NIC, the §5.4 timeout/retry machinery resends them, and the
// I/O completes with correct bytes.
func TestWireCorruptionRetries(t *testing.T) {
	arr := smallArray(t, draid.Config{
		DriveCapacity: 4 << 20,
		MaxRetries:    10,
		RetryBackoff:  20 * time.Microsecond,
		OpDeadline:    2 * time.Millisecond,
		Seed:          11,
	})
	fab := arr.Cluster().Fabric
	for i := 0; i < 5; i++ {
		fab.Connection(core.HostID, core.NodeID(i)).InjectCorrupt(0.08)
	}
	ref := randBytes(15, 512<<10)
	if err := arr.WriteSync(0, ref); err != nil {
		t.Fatalf("write over corrupting links: %v", err)
	}
	got, err := arr.ReadSync(0, int64(len(ref)))
	if err != nil {
		t.Fatalf("read over corrupting links: %v", err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("corrupted links leaked wrong bytes to a reader")
	}
	if fab.CorruptDrops() == 0 {
		t.Fatal("no corrupted frame was ever dropped (injection ineffective)")
	}
	if arr.Status().Counters.Retries == 0 {
		t.Fatal("corruption recovered without any retry (should be impossible)")
	}
}

// TestWireCorruptionDirectional corrupts only the host→target direction:
// requests die, responses flow, and retries still converge.
func TestWireCorruptionDirectional(t *testing.T) {
	arr := smallArray(t, draid.Config{
		DriveCapacity: 4 << 20,
		MaxRetries:    10,
		RetryBackoff:  20 * time.Microsecond,
		OpDeadline:    2 * time.Millisecond,
		Seed:          12,
	})
	cl := arr.Cluster()
	host := cl.HostNode
	for i := 0; i < 3; i++ {
		cl.Fabric.Connection(core.HostID, core.NodeID(i)).InjectCorruptDirection(host, 0.25)
	}
	ref := randBytes(16, 256<<10)
	if err := arr.WriteSync(0, ref); err != nil {
		t.Fatalf("write over one-way corruption: %v", err)
	}
	got, err := arr.ReadSync(0, int64(len(ref)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("one-way corruption leaked wrong bytes")
	}
	if cl.Fabric.CorruptDrops() == 0 || arr.Status().Counters.Retries == 0 {
		t.Fatalf("injection ineffective: drops=%d retries=%d",
			cl.Fabric.CorruptDrops(), arr.Status().Counters.Retries)
	}
}
