package draid_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"draid"
)

func smallArray(t *testing.T, cfg draid.Config) *draid.Array {
	t.Helper()
	if cfg.DriveCapacity == 0 {
		cfg.DriveCapacity = 64 << 20
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = 64 << 10
	}
	if cfg.Drives == 0 {
		cfg.Drives = 5
	}
	arr, err := draid.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestPublicAPIRoundTrip(t *testing.T) {
	arr := smallArray(t, draid.Config{})
	data := randBytes(1, 100<<10)
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
	if arr.Size() <= 0 {
		t.Fatal("size")
	}
	if arr.Now() <= 0 {
		t.Fatal("virtual time did not advance")
	}
}

func TestDegradedReadThroughPublicAPI(t *testing.T) {
	arr := smallArray(t, draid.Config{})
	data := randBytes(2, 128<<10)
	if err := arr.WriteSync(0, data); err != nil {
		t.Fatal(err)
	}
	arr.FailDrive(1)
	if got := arr.Status().Failed; len(got) != 1 || got[0] != 1 {
		t.Fatalf("failed drives = %v", got)
	}
	got, err := arr.ReadSync(0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read mismatch")
	}
}

func TestRebuildDriveRestoresRedundancy(t *testing.T) {
	arr := smallArray(t, draid.Config{Drives: 5})
	data := randBytes(3, 4*64<<10) // one full stripe
	if err := arr.WriteSync(0, data); err != nil {
		t.Fatal(err)
	}
	arr.FailDrive(2)
	if err := arr.RebuildDrive(2, 4); err != nil {
		t.Fatal(err)
	}
	if len(arr.Status().Failed) != 0 {
		t.Fatal("drive still marked failed after rebuild")
	}
	// Fail a DIFFERENT drive: reads must now lean on the rebuilt one.
	arr.FailDrive(0)
	got, err := arr.ReadSync(0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost after rebuild + second failure")
	}
}

func TestRaid6SurvivesTwoFailures(t *testing.T) {
	arr := smallArray(t, draid.Config{Level: draid.Raid6, Drives: 6})
	data := randBytes(4, 4*64<<10)
	if err := arr.WriteSync(0, data); err != nil {
		t.Fatal(err)
	}
	arr.FailDrive(0)
	arr.FailDrive(3)
	got, err := arr.ReadSync(0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("RAID-6 dual-failure read mismatch")
	}
}

func TestTrafficAccounting(t *testing.T) {
	arr := smallArray(t, draid.Config{Drives: 8})
	if err := arr.WriteSync(0, randBytes(5, 64<<10)); err != nil {
		t.Fatal(err)
	}
	arr.ResetTraffic()
	if err := arr.WriteSync(0, randBytes(6, 64<<10)); err != nil {
		t.Fatal(err)
	}
	out, _ := arr.HostTraffic()
	if ratio := float64(out) / (64 << 10); ratio > 1.1 {
		t.Fatalf("dRAID RMW host outbound = %.2fx, want ~1x", ratio)
	}
}

func TestBenchmarkRuns(t *testing.T) {
	arr, err := draid.New(draid.Config{SizeOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	res := arr.Benchmark(draid.BenchmarkSpec{
		IOSizeBytes: 128 << 10, QueueDepth: 12,
		Ramp: 10 * time.Millisecond, Measure: 30 * time.Millisecond,
	})
	if res.BandwidthMBps < 1000 {
		t.Fatalf("bandwidth = %.0f MB/s, implausibly low", res.BandwidthMBps)
	}
	if res.AvgLatency <= 0 || res.P99Latency < res.AvgLatency/2 {
		t.Fatalf("latencies = %v / %v", res.AvgLatency, res.P99Latency)
	}
	if res.P50Latency <= 0 || res.P99Latency < res.P50Latency {
		t.Fatalf("quantiles out of order: p50=%v p99=%v", res.P50Latency, res.P99Latency)
	}
	if res.P999Latency < res.P99Latency {
		t.Fatalf("quantiles out of order: p99=%v p999=%v", res.P99Latency, res.P999Latency)
	}
	if res.IOPS <= 0 {
		t.Fatal("no IOPS")
	}
}

func TestWriteMixAccountsEveryWrite(t *testing.T) {
	// Every per-stripe write execution lands in exactly one mix bucket:
	// with each user write contained in a single healthy stripe (and no
	// staging coalescing them), full + RMW + RCW must equal the user write
	// count exactly.
	arr := smallArray(t, draid.Config{Seed: 11})
	cs := int64(64 << 10)
	sds := 4 * cs // 5 drives, RAID-5: 4 data chunks per stripe
	writes := 0
	put := func(off, n int64) {
		if err := arr.WriteSync(off, randBytes(off+n, int(n))); err != nil {
			t.Fatal(err)
		}
		writes++
	}
	for s := int64(0); s < 8; s++ {
		put(s*sds, sds)        // full stripe
		put(s*sds+4096, 8<<10) // sub-chunk partial → RMW
		put(s*sds+cs, 3*cs)    // most-of-stripe partial → RCW
	}
	st := arr.Status().Counters
	if st.Writes != int64(writes) {
		t.Fatalf("Writes = %d, issued %d", st.Writes, writes)
	}
	if got := st.FullStripeWrites + st.RMWWrites + st.RCWWrites; got != st.Writes {
		t.Fatalf("write mix leak: full %d + rmw %d + rcw %d = %d, want %d",
			st.FullStripeWrites, st.RMWWrites, st.RCWWrites, got, st.Writes)
	}
	if st.FullStripeWrites == 0 || st.RMWWrites == 0 || st.RCWWrites == 0 {
		t.Fatalf("expected every mode exercised: full %d, rmw %d, rcw %d",
			st.FullStripeWrites, st.RMWWrites, st.RCWWrites)
	}
}

func TestReducerPolicies(t *testing.T) {
	for _, policy := range []draid.ReducerPolicy{draid.ReducerRandom, draid.ReducerBWAware, draid.ReducerFixed} {
		arr := smallArray(t, draid.Config{ReducerPolicy: policy})
		data := randBytes(7, 64<<10)
		if err := arr.WriteSync(0, data); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		arr.FailDrive(arr.Controller().Geometry().DataDrive(0, 0))
		got, err := arr.ReadSync(0, int64(len(data)))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: degraded read failed: %v", policy, err)
		}
	}
	if _, err := draid.New(draid.Config{ReducerPolicy: draid.ReducerPolicy(99)}); err == nil {
		t.Fatal("bogus policy accepted")
	}
	for in, want := range map[string]draid.ReducerPolicy{
		"": draid.ReducerRandom, "random": draid.ReducerRandom,
		"fixed": draid.ReducerFixed, "bwaware": draid.ReducerBWAware,
	} {
		got, err := draid.ParseReducerPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseReducerPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := draid.ParseReducerPolicy("bogus"); err == nil {
		t.Fatal("bogus policy string accepted")
	}
}

func TestSizeOnlyMode(t *testing.T) {
	arr := smallArray(t, draid.Config{SizeOnly: true})
	if err := arr.WriteSync(0, make([]byte, 8<<10)); err != nil {
		t.Fatal(err)
	}
	got, err := arr.ReadSync(0, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8<<10 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestInvalidGeometry(t *testing.T) {
	if _, err := draid.New(draid.Config{Drives: 2}); err == nil {
		t.Fatal("2-drive RAID-5 accepted")
	}
	tcp := draid.Config{Backend: draid.BackendRealtime, Realtime: draid.RealtimeOptions{TCP: true}, ChunkSize: 128 << 20}
	if err := tcp.Validate(); err == nil {
		t.Fatal("128 MiB chunks accepted over TCP, whose frames carry at most 64 MiB")
	}
}

func TestHeterogeneousNICConfig(t *testing.T) {
	arr := smallArray(t, draid.Config{TargetNICGbpsList: []float64{100, 25}})
	if err := arr.WriteSync(0, randBytes(8, 32<<10)); err != nil {
		t.Fatal(err)
	}
}

func TestDrivesPerServerConfig(t *testing.T) {
	arr := smallArray(t, draid.Config{Drives: 6, DrivesPerServer: 2})
	data := randBytes(9, 128<<10)
	if err := arr.WriteSync(0, data); err != nil {
		t.Fatal(err)
	}
	got, err := arr.ReadSync(0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("co-located array round-trip failed: %v", err)
	}
	// 6 members over 3 physical servers.
	servers := map[string]bool{}
	for _, nd := range arr.Cluster().Targets {
		servers[nd.Name()] = true
	}
	if len(servers) != 3 {
		t.Fatalf("server count = %d, want 3", len(servers))
	}
}

func TestOffloadedControllerMode(t *testing.T) {
	arr := smallArray(t, draid.Config{Drives: 8, OffloadController: true})
	data := randBytes(10, 64<<10)
	if err := arr.WriteSync(0, data); err != nil {
		t.Fatal(err)
	}
	arr.ResetTraffic()
	if err := arr.WriteSync(0, randBytes(11, 64<<10)); err != nil {
		t.Fatal(err)
	}
	out, _ := arr.HostTraffic()
	if ratio := float64(out) / (64 << 10); ratio > 1.05 {
		t.Fatalf("offloaded client outbound = %.2fx, want ~1x", ratio)
	}
	got, err := arr.ReadSync(0, 64<<10)
	if err != nil || len(got) != 64<<10 {
		t.Fatalf("offloaded read: %v", err)
	}
	// Degraded path still works through the thin client.
	arr.FailDrive(arr.Controller().Geometry().DataDrive(0, 0))
	if _, err := arr.ReadSync(0, 64<<10); err != nil {
		t.Fatalf("offloaded degraded read: %v", err)
	}
}
