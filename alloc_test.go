package draid_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"draid"
)

// TestRealtimeAllocBytesPerUserByte guards the payload-ownership rule where
// `go test ./...` can see it: on the realtime chan/MemDrive datapath a user
// byte is allocated about once — the buffer a read returns, the private copy
// a write takes — and every other hop hands buffers on or recycles them.
// Clone a payload at one more hop and the ratio for that direction rises by
// 1.0, well past these ceilings (steady state measures ≈1.02 and ≈1.16; the
// stripe-write ceiling also covers the 1/7 parity chunk; random 4 KiB writes
// measure ≈1.88, the per-op records weighing more against so small a payload).
//
// It guards the object count the same way: heap objects allocated per user
// op (runtime.MemStats.Mallocs), ceilings at most 20 % over what this tree
// measures (≈46 per 128 KiB read, ≈73 per full-stripe write, ≈52 per random
// 4 KiB write — the read-modify-write path, 5 capsules an op and almost no
// payload), so a per-op map, a closure or wrapper per queued task or
// delivered capsule, a timer per op, an eager format or a capsule copy added
// to the message path fails here — and a claim to have removed some starts
// from a floor the suite can see. Before the controllers queued delivered
// capsules in an inbox and timed ops out from one deadline heap, the tree
// measured ≈59 / ≈106 / ≈63 and failed every one of these ceilings.
func TestRealtimeAllocBytesPerUserByte(t *testing.T) {
	if testing.Short() {
		t.Skip("drives ~90 MiB through a realtime array")
	}
	const (
		chunk   = 64 << 10
		stripe  = 7 * chunk
		stripes = 64
		readLen = 128 << 10
		reads   = 256
		small   = 4 << 10
		smalls  = 1024
	)
	arr, err := draid.New(draid.Config{
		Backend: draid.BackendRealtime, Drives: 8, ChunkSize: chunk, DriveCapacity: stripes * chunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Close()

	data := randBytes(9, stripe)
	writeAll := func() {
		for s := int64(0); s < stripes; s++ {
			if err := arr.WriteSync(s*stripe, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	readAll := func() {
		for i := int64(0); i < reads; i++ {
			if _, err := arr.ReadSync(i*readLen%(stripes*stripe-readLen), readLen); err != nil {
				t.Fatal(err)
			}
		}
	}
	smallData := randBytes(10, small)
	smallAll := func() {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < smalls; i++ {
			if err := arr.WriteSync(rng.Int63n(stripes*stripe/small)*small, smallData); err != nil {
				t.Fatal(err)
			}
		}
	}
	// allocated runs fn and returns the heap bytes it allocated per user byte
	// and the heap objects per op.
	allocated := func(userBytes, ops int64, fn func()) (perByte, perOp float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(userBytes),
			float64(after.Mallocs-before.Mallocs) / float64(ops)
	}

	// Warm up: the first pass allocates the drives' pages and fills the free
	// lists; steady state is what the rule is about.
	writeAll()
	readAll()
	smallAll()

	for _, c := range []struct {
		what      string
		user, ops int64
		run       func()
		ceiling   float64 // heap bytes per user byte
		objects   float64 // heap objects per op
	}{
		{"128 KiB reads", reads * readLen, reads, readAll, 1.25, 55},
		{"full-stripe writes", stripes * stripe, stripes, writeAll, 1.40, 87},
		{"random 4 KiB writes", smalls * small, smalls, smallAll, 2.60, 62},
	} {
		got, objs := allocated(c.user, c.ops, c.run)
		t.Logf("%s: %.3f heap bytes allocated per user byte, %.1f heap objects per op", c.what, got, objs)
		if got > c.ceiling {
			t.Errorf("%s allocate %.2f heap bytes per user byte, want ≤ %.2f", c.what, got, c.ceiling)
		}
		if objs > c.objects {
			t.Errorf("%s allocate %.1f heap objects per op, want ≤ %.0f", c.what, objs, c.objects)
		}
	}
}

// TestSizeOnlySimAllocBytesPerUserByte pins what SizeOnly promises (package
// parity, README "Benchmarks"): a size-only simulation keeps memory flat. At
// the paper's shape — RAID-5 over 8 drives, 512 KiB chunks — no hop holds
// payload bytes, so what a user byte costs the heap is bookkeeping: capsules,
// closures, event records. A read that materializes its user buffer, or a
// reduction that zeroes an accumulator only to have an elided contribution
// poison it, costs ≈1 byte per byte on its own: while both did, this test
// measured 1.08 (writes) and 1.18 (reads). Now ≈0.03 and ≈0.02. Objects per
// op have ceilings at most 20 % over what this tree measures (≈46 per RMW
// write, ≈32 per read). With three closures per capsule on the simulated
// fabric and one per delivered capsule in the controllers, the tree measured
// ≈79 and ≈55 and failed both.
func TestSizeOnlySimAllocBytesPerUserByte(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates ~1 GB of size-only I/O")
	}
	const (
		ioSize  = 128 << 10
		measure = 40 * time.Millisecond
	)
	arr, err := draid.New(draid.Config{SizeOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Close()
	// bench runs one fio window and returns the user bytes and ops it
	// completed; ramp is short so nearly every op it allocates for counts.
	bench := func(readRatio float64) (user, ops int64) {
		r := arr.Benchmark(draid.BenchmarkSpec{
			IOSizeBytes: ioSize, ReadRatio: readRatio, Ramp: time.Microsecond, Measure: measure,
		})
		if readRatio == 0 && r.RMWFrac != 1 {
			t.Fatalf("write mix %+v, want every 128 KiB write a read-modify-write", r)
		}
		ops = int64(math.Round(r.IOPS * measure.Seconds()))
		return ops * ioSize, ops
	}
	for _, c := range []struct {
		what      string
		readRatio float64
		fail      bool
		ceiling   float64 // heap bytes per user byte
		objects   float64 // heap objects per op
	}{
		{"128 KiB RMW writes", 0, false, 0.25, 55},
		{"128 KiB reads, one member failed", 1, true, 0.25, 38},
	} {
		if c.fail {
			arr.FailDrive(2)
		}
		bench(c.readRatio) // warm up: the event heap, slot table and free lists grow
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		user, ops := bench(c.readRatio)
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / float64(user)
		objs := float64(after.Mallocs-before.Mallocs) / float64(ops)
		t.Logf("%s: %d ops, %.3f heap bytes allocated per user byte, %.1f heap objects per op", c.what, ops, got, objs)
		if got > c.ceiling {
			t.Errorf("%s allocate %.2f heap bytes per user byte, want ≤ %.2f", c.what, got, c.ceiling)
		}
		if objs > c.objects {
			t.Errorf("%s allocate %.1f heap objects per op, want ≤ %.0f", c.what, objs, c.objects)
		}
	}
}
