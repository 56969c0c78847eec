package draid_test

import (
	"bytes"
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
	if r5.Stats().DegradedReads == 0 || r6.Stats().DegradedReads == 0 {
		t.Fatalf("expected degraded reads on both volumes: r5=%d r6=%d",
			r5.Stats().DegradedReads, r6.Stats().DegradedReads)
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
	for _, e := range a.RecoveryEvents() {
		if e.Kind == "rebuild-done" {
			doneA++
		}
	}
	for _, e := range b.RecoveryEvents() {
		if e.Kind == "rebuild-done" {
			doneB++
		}
	}
	if doneA != 1 {
		t.Fatalf("winner rebuilt %d times, want 1\nevents: %v", doneA, a.RecoveryEvents())
	}
	if doneB != 0 {
		t.Fatalf("loser should stay queued, rebuilt %d times", doneB)
	}
	if len(a.FailedDrives()) != 0 {
		t.Fatalf("winner still degraded: %v", a.FailedDrives())
	}
	if len(b.FailedDrives()) == 0 {
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
			if len(v.FailedDrives()) != 0 {
				t.Fatalf("rebuild incomplete: %v", v.FailedDrives())
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
// Config.Validate rejects for a standalone array a pool volume must reject
// too, for the same reason. (OpenVolume used to check a hand-picked subset.)
func TestFrontDoorsRejectTheSameConfigs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  draid.Config
	}{
		{"StageMB without WriteBack", draid.Config{StageMB: 4}},
		{"CacheMB without WriteBack", draid.Config{CacheMB: 4}},
		{"DestageIntervalMs without WriteBack", draid.Config{DestageIntervalMs: 5}},
		{"negative write-back sizing", draid.Config{WriteBack: true, StageMB: -1}},
		{"unknown hedge policy", draid.Config{Hedge: draid.HedgeConfig{Policy: 99}}},
		{"unknown reducer policy", draid.Config{ReducerPolicy: 99}},
		{"HostLease without EpochFencing", draid.Config{HostLease: time.Millisecond}},
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
			_, err := newTestPool(t, draid.PoolConfig{}).OpenVolume(draid.VolumeConfig{
				ReducerPolicy: c.ReducerPolicy, Hedge: c.Hedge,
				WriteBack: c.WriteBack, StageMB: c.StageMB, CacheMB: c.CacheMB, DestageIntervalMs: c.DestageIntervalMs,
				EpochFencing: c.EpochFencing, HostLease: c.HostLease,
			})
			if err == nil || !strings.Contains(err.Error(), want.Error()) {
				t.Errorf("Pool.OpenVolume: %v, want %v", err, want)
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
