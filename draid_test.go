package draid_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"draid"
	"draid/internal/parity"
)

// TestMain runs the package with released pooled buffers poisoned, so a
// caller that keeps a lent read past its callback, or anything that touches a
// payload after releasing it, reads the pattern and fails its check.
func TestMain(m *testing.M) {
	parity.SetPoison(true)
	os.Exit(m.Run())
}

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

// A drive failure on a shared server fails that drive alone: its sibling
// member keeps serving, so the array reads back and writes degraded.
func TestDrivesPerServerConfig(t *testing.T) {
	for _, failed := range []int{-1, 0} {
		arr := smallArray(t, draid.Config{Drives: 6, DrivesPerServer: 2})
		data := randBytes(9, 128<<10)
		if err := arr.WriteSync(0, data); err != nil {
			t.Fatal(err)
		}
		if failed >= 0 {
			arr.FailDrive(failed)
		}
		got, err := arr.ReadSync(0, int64(len(data)))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("failed drive %d: co-located array round-trip failed: %v", failed, err)
		}
		data = randBytes(19, 128<<10)
		if err := arr.WriteSync(0, data); err != nil {
			t.Fatalf("failed drive %d: co-located write: %v", failed, err)
		}
		if got, err := arr.ReadSync(0, int64(len(data))); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("failed drive %d: read after co-located write: %v", failed, err)
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
}

// The offloaded controller runs on server 0, one hop from the client, whose
// NIC carries 1x on writes and degraded reads alike. With every member on
// that server too (Table 1's single machine) no member capsule crosses a
// NIC: the server's NIC carries exactly the client's bytes.
func TestOffloadedControllerMode(t *testing.T) {
	const n = 64 << 10
	for _, perServer := range []int{1, 8} {
		t.Run(fmt.Sprintf("DrivesPerServer=%d", perServer), func(t *testing.T) {
			arr := smallArray(t, draid.Config{Drives: 8, DrivesPerServer: perServer, OffloadController: true, EpochFencing: true})
			// client checks the client's NIC bytes in one direction against 1x,
			// and with every member on the controller's server, that server's
			// NIC against the client's.
			client := func(what string, inbound bool) {
				t.Helper()
				out, in := arr.HostTraffic()
				b := out
				if inbound {
					b = in
				}
				if ratio := float64(b) / n; ratio < 1 || ratio > 1.05 {
					t.Fatalf("offloaded client %s = %.2fx, want ~1x", what, ratio)
				}
				if server := arr.Cluster().Targets[0]; perServer == 8 && (server.BytesIn() != out || server.BytesOut() != in) {
					t.Fatalf("%s: server NIC in/out = %d/%d bytes, client out/in = %d/%d: member traffic crossed a NIC",
						what, server.BytesIn(), server.BytesOut(), out, in)
				}
			}
			if err := arr.WriteSync(0, randBytes(10, n)); err != nil {
				t.Fatal(err)
			}
			arr.ResetTraffic()
			data := randBytes(11, n)
			if err := arr.WriteSync(0, data); err != nil {
				t.Fatal(err)
			}
			client("outbound on write", false)
			// Degraded path still works through the thin client.
			arr.FailDrive(arr.Controller().Geometry().DataDrive(0, 0))
			arr.ResetTraffic()
			got, err := arr.ReadSync(0, n)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("offloaded degraded read: %v", err)
			}
			client("inbound on degraded read", true)
			if _, err := arr.SeizeHost(); !errors.Is(err, draid.ErrUnsupported) {
				t.Fatalf("SeizeHost on an offloaded controller: %v, want ErrUnsupported", err)
			}
		})
	}
}

// Table 1's single machine: every member and the offloaded controller on one
// server. Its I/O path is the array's own, so an unaligned write, a write
// to a failed member and an access past the end behave as on any array.
func TestOneServerArray(t *testing.T) {
	const chunk = 64 << 10
	cfg := draid.Config{Drives: 8, DrivesPerServer: 8, OffloadController: true}
	stripe := int64(7 * chunk) // RAID-5 over 8 drives: 7 data chunks a stripe
	t.Run("unaligned round trip", func(t *testing.T) {
		arr := smallArray(t, cfg)
		data := randBytes(30, 100<<10)
		if err := arr.WriteSync(8<<10, data); err != nil {
			t.Fatal(err)
		}
		if got, err := arr.ReadSync(8<<10, int64(len(data))); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back: err=%v match=%v", err, bytes.Equal(got, data))
		}
	})
	t.Run("degraded write reads back", func(t *testing.T) {
		arr := smallArray(t, cfg)
		want := randBytes(31, int(2*stripe))
		if err := arr.WriteSync(0, want); err != nil {
			t.Fatal(err)
		}
		arr.FailDrive(arr.Controller().Geometry().DataDrive(0, 0))
		// An unaligned write over the failed member's chunk and the next one:
		// the failed chunk's new bytes live only in parity.
		patch := randBytes(32, 100<<10)
		if err := arr.WriteSync(8<<10, patch); err != nil {
			t.Fatalf("degraded write: %v", err)
		}
		copy(want[8<<10:], patch)
		if got, err := arr.ReadSync(0, int64(len(want))); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read after degraded write: err=%v match=%v", err, bytes.Equal(got, want))
		}
	})
	t.Run("out of range rejected", func(t *testing.T) {
		arr := smallArray(t, cfg)
		if arr.Size() <= 0 {
			t.Fatalf("size = %d", arr.Size())
		}
		if _, err := arr.ReadSync(arr.Size(), 4); !errors.Is(err, draid.ErrOutOfRange) {
			t.Fatalf("read past the end: %v, want ErrOutOfRange", err)
		}
		if err := arr.WriteSync(-1, make([]byte, 4)); !errors.Is(err, draid.ErrOutOfRange) {
			t.Fatalf("write at -1: %v, want ErrOutOfRange", err)
		}
	})
}
