package draid_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"draid"
	"draid/internal/experiments"
	"draid/internal/sim"
)

// newTestPool builds a small two-tenant-capable pool: tiny drives so
// rebuilds finish fast, deterministic seed.
func newTestPool(t *testing.T, cfg draid.PoolConfig) *draid.Pool {
	t.Helper()
	if cfg.Drives == 0 {
		cfg.Drives = 6
	}
	if cfg.DriveCapacity == 0 {
		cfg.DriveCapacity = 1 << 20
	}
	p, err := draid.NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func pattern(n int, mul byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i) * mul
	}
	return b
}

func TestTwoVolumeTrafficSumsToAggregate(t *testing.T) {
	p := newTestPool(t, draid.PoolConfig{})
	a, err := p.OpenVolume(draid.VolumeConfig{Name: "a", ChunkSize: 64 << 10, Extent: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.OpenVolume(draid.VolumeConfig{Name: "b", ChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}

	// Interleave work from both tenants on the shared clock.
	var errA, errB error
	a.Write(0, pattern(256<<10, 3), func(e error) { errA = e })
	b.Write(64<<10, pattern(96<<10, 5), func(e error) { errB = e })
	p.Run()
	if errA != nil || errB != nil {
		t.Fatalf("writes failed: %v, %v", errA, errB)
	}

	aOut, aIn := a.HostTraffic()
	bOut, bIn := b.HostTraffic()
	totOut, totIn := p.TotalHostTraffic()
	if aOut == 0 || bOut == 0 {
		t.Fatal("per-volume attribution recorded nothing")
	}
	if aOut+bOut != totOut || aIn+bIn != totIn {
		t.Fatalf("volume traffic does not sum to aggregate: (%d+%d, %d+%d) != (%d, %d)",
			aOut, bOut, aIn, bIn, totOut, totIn)
	}

	p.ResetTraffic()
	aOut, aIn = a.HostTraffic()
	totOut, totIn = p.TotalHostTraffic()
	if aOut != 0 || aIn != 0 || totOut != 0 || totIn != 0 {
		t.Fatal("ResetTraffic left residue")
	}
}

func TestMixedLevelsSharedDrivesDegradedReads(t *testing.T) {
	p := newTestPool(t, draid.PoolConfig{})
	r5, err := p.OpenVolume(draid.VolumeConfig{Name: "r5", Level: draid.Raid5, ChunkSize: 64 << 10, Extent: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	r6, err := p.OpenVolume(draid.VolumeConfig{Name: "r6", Level: draid.Raid6, ChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}

	want5 := pattern(256<<10, 7)
	want6 := pattern(192<<10, 11)
	if err := r5.WriteSync(0, want5); err != nil {
		t.Fatal(err)
	}
	if err := r6.WriteSync(0, want6); err != nil {
		t.Fatal(err)
	}

	// One physical drive failure degrades both tenants at once.
	p.FailDrive(2)

	got5, err := r5.ReadSync(0, int64(len(want5)))
	if err != nil {
		t.Fatalf("raid5 degraded read: %v", err)
	}
	if !bytes.Equal(got5, want5) {
		t.Fatal("raid5 degraded read returned wrong data")
	}
	got6, err := r6.ReadSync(0, int64(len(want6)))
	if err != nil {
		t.Fatalf("raid6 degraded read: %v", err)
	}
	if !bytes.Equal(got6, want6) {
		t.Fatal("raid6 degraded read returned wrong data")
	}
	if r5.Status().Counters.DegradedReads == 0 || r6.Status().Counters.DegradedReads == 0 {
		t.Fatalf("expected degraded reads on both volumes: r5=%d r6=%d",
			r5.Status().Counters.DegradedReads, r6.Status().Counters.DegradedReads)
	}
}

// TestPoolSparesAvailableDuringClaim polls the spare count from the test
// goroutine across the window in which a realtime volume's supervisor claims
// the spare on the host loop. Every read must be ordered with that claim; the
// race detector reports one that is not.
func TestPoolSparesAvailableDuringClaim(t *testing.T) {
	p := newTestPool(t, draid.PoolConfig{Backend: draid.BackendRealtime, Spares: 1})
	defer p.Close()
	v, err := p.OpenVolume(draid.VolumeConfig{ChunkSize: 64 << 10, Extent: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.WriteSync(0, pattern(128<<10, 3)); err != nil {
		t.Fatal(err)
	}
	p.FailDrive(1)
	for deadline := time.Now().Add(10 * time.Second); p.SparesAvailable() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the supervisor never claimed the spare")
		}
	}
	p.Run()
	if st := v.Status(); st.Rebuild.Active || len(st.Failed) != 0 {
		t.Fatalf("rebuild onto the claimed spare did not finish: %+v\n%v", st.Rebuild, st.Events)
	}
}

func TestSharedSpareFirstClaimArbitration(t *testing.T) {
	p := newTestPool(t, draid.PoolConfig{Spares: 1})
	a, err := p.OpenVolume(draid.VolumeConfig{Name: "a", ChunkSize: 64 << 10, Extent: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.OpenVolume(draid.VolumeConfig{Name: "b", ChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteSync(0, pattern(128<<10, 3)); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteSync(0, pattern(128<<10, 5)); err != nil {
		t.Fatal(err)
	}
	if p.SparesAvailable() != 1 {
		t.Fatalf("spares available = %d, want 1", p.SparesAvailable())
	}

	// One shared-drive failure degrades both volumes; their supervisors race
	// for the single spare. Volume a is notified first and wins the claim;
	// b stays queued, degraded.
	p.FailDrive(1)
	p.Run()

	if p.SparesAvailable() != 0 {
		t.Fatalf("spare not claimed: %d available", p.SparesAvailable())
	}
	doneA, doneB := 0, 0
	for _, e := range a.Status().Events {
		if e.Kind == "rebuild-done" {
			doneA++
		}
	}
	for _, e := range b.Status().Events {
		if e.Kind == "rebuild-done" {
			doneB++
		}
	}
	if doneA != 1 {
		t.Fatalf("winner rebuilt %d times, want 1\nevents: %v", doneA, a.Status().Events)
	}
	if doneB != 0 {
		t.Fatalf("loser should stay queued, rebuilt %d times", doneB)
	}
	if len(a.Status().Failed) != 0 {
		t.Fatalf("winner still degraded: %v", a.Status().Failed)
	}
	if len(b.Status().Failed) == 0 {
		t.Fatal("loser should still be degraded")
	}
	// The loser's data stays reachable through reconstruction.
	got, err := b.ReadSync(0, 128<<10)
	if err != nil {
		t.Fatalf("loser degraded read: %v", err)
	}
	if !bytes.Equal(got, pattern(128<<10, 5)) {
		t.Fatal("loser degraded read returned wrong data")
	}
}

func TestSharedRebuildRateLimiterArbitrates(t *testing.T) {
	// Two spares, shared rebuild budget: both volumes rebuild concurrently
	// and must split the configured rate rather than each claiming it in
	// full — so the pair takes roughly twice as long as a lone rebuild at
	// the same rate.
	elapsed := func(spares int, openBoth bool) time.Duration {
		p := newTestPool(t, draid.PoolConfig{Spares: spares, RebuildRateMBps: 50})
		a, err := p.OpenVolume(draid.VolumeConfig{Name: "a", ChunkSize: 64 << 10, Extent: 256 << 10})
		if err != nil {
			t.Fatal(err)
		}
		vols := []*draid.Array{a}
		if openBoth {
			b, err := p.OpenVolume(draid.VolumeConfig{Name: "b", ChunkSize: 64 << 10, Extent: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			vols = append(vols, b)
		}
		for i, v := range vols {
			if err := v.WriteSync(0, pattern(64<<10, byte(3+i))); err != nil {
				t.Fatal(err)
			}
		}
		start := p.Now()
		p.FailDrive(1)
		p.Run()
		for _, v := range vols {
			if len(v.Status().Failed) != 0 {
				t.Fatalf("rebuild incomplete: %v", v.Status().Failed)
			}
		}
		return p.Now() - start
	}

	solo := elapsed(1, false)
	both := elapsed(2, true)
	if both < solo*3/2 {
		t.Fatalf("shared limiter not arbitrating: solo=%v both=%v", solo, both)
	}
	// The closed form behind that: each volume rebuilds 4 stripes, every
	// stripe start reserves one chunk from the bucket, and reservations are
	// granted one gap apart in call order — so a lone walk's last stripe
	// starts 3 gaps in, and the interleaved pair's last one 7 gaps in.
	gap := time.Duration(float64(64<<10) / 50e6 * 1e9)
	if solo < 3*gap || solo >= 7*gap || both < 7*gap {
		t.Fatalf("shared bucket spacing off: gap=%v solo=%v (want ≥3 gaps) both=%v (want ≥7 gaps)", gap, solo, both)
	}
}

func TestMultivolExperimentDeterministic(t *testing.T) {
	opts := experiments.Options{Quick: true, Seed: 5, Ramp: sim.Millisecond, Measure: 5 * sim.Millisecond}
	r1, err := experiments.Run("multivol-noisy", opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := experiments.Run("multivol-noisy", opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("multivol-noisy not deterministic across runs")
	}
	if r1 == "" {
		t.Fatal("empty report")
	}
}

// TestFrontDoorsRejectTheSameConfigs: draid.New and Pool.OpenVolume translate
// public configuration through one opener behind one validation, so whatever
// Config.Validate rejects for a standalone array a pool must reject too, for
// the same reason — the pool's half in NewPool, the volume's in OpenVolume.
// (OpenVolume used to check a hand-picked subset.)
func TestFrontDoorsRejectTheSameConfigs(t *testing.T) {
	realtime := func(c draid.Config) draid.Config {
		c.Backend = draid.BackendRealtime
		return c
	}
	for _, tc := range []struct {
		name        string
		cfg         draid.Config
		unsupported bool // the realtime rows: a simulation model the backend lacks
	}{
		{name: "StageMB without WriteBack", cfg: draid.Config{StageMB: 4}},
		{name: "CacheMB without WriteBack", cfg: draid.Config{CacheMB: 4}},
		{name: "DestageIntervalMs without WriteBack", cfg: draid.Config{DestageIntervalMs: 5}},
		{name: "negative write-back sizing", cfg: draid.Config{WriteBack: true, StageMB: -1}},
		{name: "unknown hedge policy", cfg: draid.Config{Hedge: draid.HedgeConfig{Policy: 99}}},
		{name: "unknown reducer policy", cfg: draid.Config{ReducerPolicy: 99}},
		{name: "HostLease without EpochFencing", cfg: draid.Config{HostLease: time.Millisecond}},
		{name: "unknown backend", cfg: draid.Config{Backend: "quantum"}},
		{name: "realtime Observe.Trace", cfg: realtime(draid.Config{Observe: draid.Observe{Trace: true}}), unsupported: true},
		{name: "realtime DrivesPerServer", cfg: realtime(draid.Config{DrivesPerServer: 2}), unsupported: true},
		{name: "realtime ReducerBWAware", cfg: realtime(draid.Config{ReducerPolicy: draid.ReducerBWAware}), unsupported: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.cfg.Validate()
			if want == nil {
				t.Fatal("Config.Validate accepts it")
			}
			if _, err := draid.New(tc.cfg); err == nil || err.Error() != want.Error() {
				t.Errorf("draid.New: %v, want %v", err, want)
			}
			c := tc.cfg
			p, err := draid.NewPool(draid.PoolConfig{
				Backend: c.Backend, Drives: 6, DriveCapacity: 1 << 20,
				Observe: c.Observe, DrivesPerServer: c.DrivesPerServer,
			})
			if err == nil {
				defer p.Close()
				_, err = p.OpenVolume(draid.VolumeConfig{
					ReducerPolicy: c.ReducerPolicy, Hedge: c.Hedge,
					WriteBack: c.WriteBack, StageMB: c.StageMB, CacheMB: c.CacheMB, DestageIntervalMs: c.DestageIntervalMs,
					EpochFencing: c.EpochFencing, HostLease: c.HostLease,
				})
			}
			if err == nil || !strings.Contains(err.Error(), want.Error()) {
				t.Errorf("NewPool/OpenVolume: %v, want %v", err, want)
			}
			if tc.unsupported != errors.Is(err, draid.ErrUnsupported) {
				t.Errorf("NewPool/OpenVolume: %v; errors.Is(ErrUnsupported) should be %v", err, tc.unsupported)
			}
		})
	}
}

// TestPoolVolumeInjectionFollowsPoolSeed: a pool volume's per-drive fault
// injection is seeded from PoolConfig.Seed, as a standalone array's is from
// Config.Seed. The same sequential read pass under the same latent-error rate
// must develop its UREs in different places on pools that differ only in
// seed, and in the same places on pools that do not. (Pool volumes used to
// seed every drive from 0, whatever the pool's seed.)
func TestPoolVolumeInjectionFollowsPoolSeed(t *testing.T) {
	failedReads := func(seed int64) (bad []int64) {
		p := newTestPool(t, draid.PoolConfig{Seed: seed})
		arr, err := p.OpenVolume(draid.VolumeConfig{ChunkSize: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := arr.WriteSync(0, pattern(int(arr.Size()), 3)); err != nil {
			t.Fatal(err)
		}
		if err := arr.Inject().LatentErrorRate(0.05); err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < arr.Size(); off += 16 << 10 {
			if _, err := arr.ReadSync(off, 16<<10); err != nil {
				bad = append(bad, off)
			}
		}
		return bad
	}
	one, again, other := failedReads(1), failedReads(1), failedReads(2)
	if len(one) == 0 {
		t.Fatal("no read hit a latent error: the rate is too low to tell seeds apart")
	}
	if !reflect.DeepEqual(one, again) {
		t.Errorf("same pool seed, different UREs: %v vs %v", one, again)
	}
	if reflect.DeepEqual(one, other) {
		t.Errorf("pool seeds 1 and 2 developed identical UREs at %v: injection ignores PoolConfig.Seed", one)
	}
}

// TestInjectionOutsideTheVolume: Injector.MediaError and BitRot take a
// virtual range from outside the program. One that leaves the volume is
// refused with ErrOutOfRange and injects nothing. (The range used to go
// straight to the geometry: an overhang was mapped past the volume's extent —
// in a pool, onto the next volume's bytes — and a negative offset or length
// panicked, on realtime on the host loop's goroutine.)
func TestInjectionOutsideTheVolume(t *testing.T) {
	p := newTestPool(t, draid.PoolConfig{})
	vol0, err := p.OpenVolume(draid.VolumeConfig{Name: "v0", ChunkSize: 64 << 10, Extent: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	vol1, err := p.OpenVolume(draid.VolumeConfig{Name: "v1", ChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(512<<10, 5)
	if err := vol1.WriteSync(0, want); err != nil {
		t.Fatal(err)
	}
	stripe := vol0.Controller().Geometry().StripeDataSize()
	if err := vol0.Inject().BitRot(vol0.Size()-4096, stripe+4096); !errors.Is(err, draid.ErrOutOfRange) {
		t.Fatalf("bit rot overhanging volume 0 by a stripe: %v, want ErrOutOfRange", err)
	}
	if got, err := vol1.ReadSync(0, int64(len(want))); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("volume 1 after an injection into volume 0: err %v, bytes equal %v", err, bytes.Equal(got, want))
	}

	arr, err := draid.New(draid.Config{Drives: 5, ChunkSize: 16 << 10, DriveCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Close()
	for _, r := range []struct{ off, n int64 }{{-4096, 8192}, {0, -1}, {arr.Size() - 4096, 8192}, {arr.Size(), 1}} {
		for name, inject := range map[string]func(off, n int64) error{"MediaError": arr.Inject().MediaError, "BitRot": arr.Inject().BitRot} {
			if err := inject(r.off, r.n); !errors.Is(err, draid.ErrOutOfRange) {
				t.Errorf("%s(%d, %d) = %v, want ErrOutOfRange", name, r.off, r.n, err)
			}
		}
	}
	for i, d := range arr.Cluster().Drives {
		if bad := d.MediaErrorRanges(); len(bad) != 0 {
			t.Errorf("drive %d has media errors %v after refused injections", i, bad)
		}
	}
}

// TestPoolOnEveryBackend drives one pool through its whole surface on each
// substrate: a fixed and a declustered width-4 volume share eight drives;
// both are written, a drive they share fails under them, both read back
// exactly while degraded, the supervisors rebuild (the fixed volume onto a
// hot spare, the declustered one into its distributed spare slots), the pool
// grows by a drive and rebalances, and at the end the per-volume host bytes
// sum to the shared NIC's and the drained cluster holds nothing.
func TestPoolOnEveryBackend(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  draid.PoolConfig
	}{
		{"sim", draid.PoolConfig{}},
		{"realtime chan", draid.PoolConfig{Backend: draid.BackendRealtime}},
		{"realtime tcp", draid.PoolConfig{Backend: draid.BackendRealtime, Realtime: draid.RealtimeOptions{TCP: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			// Two spares: the fixed volume's rebuild claims one, AddDrive the other.
			cfg.Drives, cfg.DriveCapacity, cfg.Spares = 8, 4<<20, 2
			p := newTestPool(t, cfg)
			defer p.Close()
			open := func(vc draid.VolumeConfig) *draid.Array {
				vc.Drives, vc.ChunkSize, vc.Extent = 4, 64<<10, 1<<20
				arr, err := p.OpenVolume(vc)
				if err != nil {
					t.Fatal(err)
				}
				return arr
			}
			vols := []*draid.Array{open(draid.VolumeConfig{Name: "fixed"}), open(draid.VolumeConfig{Name: "decl", Declustered: true})}
			data := [][]byte{randBytes(31, 512<<10), randBytes(32, 512<<10)}
			readBack := func(when string) {
				t.Helper()
				for i, arr := range vols {
					got, err := arr.ReadSync(0, int64(len(data[i])))
					if err != nil || !bytes.Equal(got, data[i]) {
						t.Fatalf("volume %d %s: read back wrong bytes (err %v)", i, when, err)
					}
				}
			}
			for i, arr := range vols {
				if err := arr.WriteSync(0, data[i]); err != nil {
					t.Fatal(err)
				}
			}

			const shared = 1 // inside the fixed window, populated in the declustered layout
			p.FailDrive(shared)
			readBack("degraded")
			p.Run()
			for i, arr := range vols {
				if st := arr.Status().Rebuild; st.Active || st.Err != nil || st.Done == 0 {
					t.Fatalf("volume %d: rebuild %+v", i, st)
				}
			}
			if failed := vols[0].Status().Failed; len(failed) != 0 {
				t.Fatalf("fixed volume still degraded after its spare rebuild: %v", failed)
			}
			readBack("rebuilt")

			if idx, err := p.AddDrive(); err != nil || idx != 8 {
				t.Fatalf("AddDrive = %d, %v; want drive 8", idx, err)
			}
			if err := p.WaitRebalance(); err != nil {
				t.Fatal(err)
			}
			if n := vols[1].Status().Drives; n != 9 {
				t.Fatalf("declustered volume sees %d drives, want 9", n)
			}
			if p.SparesAvailable() != 0 {
				t.Fatalf("%d spares left, want both claimed", p.SparesAvailable())
			}
			readBack("rebalanced")

			var out, in int64
			for _, arr := range vols {
				o, i := p.VolumeHostTraffic(arr.Status().Volume)
				out, in = out+o, in+i
			}
			if totOut, totIn := p.TotalHostTraffic(); out == 0 || out != totOut || in != totIn {
				t.Fatalf("volume traffic (%d, %d) does not sum to the host NIC's (%d, %d)", out, in, totOut, totIn)
			}
			p.Run()
			if err := p.Cluster().LeakCheck(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
