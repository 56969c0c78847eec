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
// byte is allocated about once — the buffer ReadSync returns, which the caller
// keeps, the private copy a write takes — and every other hop hands buffers on
// or recycles them.
// Clone a payload at one more hop and the ratio for that direction rises by
// 1.0, well past these ceilings (steady state measures ≈1.00 and ≈1.14; the
// stripe-write ceiling also covers the 1/7 parity chunk; random 4 KiB writes
// measure ≈1.01, and measured ≈1.35 while per-op records weighed against so
// small a payload; a degraded 64 KiB read measures ≈2.00: the rebuilt segment
// leaves the reducer's pool for the host, and the user's buffer is assembled
// from it).
//
// It guards the object count the same way: heap objects allocated per user
// op (runtime.MemStats.Mallocs), ceilings at most 5 % over what this tree
// measures (1.01 per 128 KiB read — its buffer —, 2.00–2.09 per full-stripe
// write — the private copy and P —, 1.00–1.04 per random 4 KiB write — the
// private copy; its read-modify-write sends 2 capsules carrying an SGL entry
// from a shared block — and 2.01–2.06 per 64 KiB read rebuilt on a peer), so
// a single object added per op — a per-op map, a closure per drive I/O, op
// step, CPU slot, queued task or delivered capsule, a timer per op, an eager
// format, a capsule copy, a record not pooled — fails here, and a claim to
// have removed some starts from a floor the suite can see. While the host ran
// each I/O on closures and fresh ops, grouped its extents through a map and
// a sort, and armed a fresh runtime timer per op, and the API wrapped each
// call in a closure and a channel, the tree measured 36.2 / 32.0 / 23.0 /
// 39.0; before the servers ran each capsule as a pooled command record,
// ≈46 / ≈73 / ≈52 / ≈101.
//
// A read whose caller does not keep the buffer allocates none: Array.Read
// lends its callback a buffer the host recycles, and ReadAt copies out of
// one. 128 KiB lent reads and ReadAts and 16 KiB lent reads over TCP measure
// 0.004, 0.000 and 0.002 bytes per user byte and as many objects per op — the
// one buffer a window takes after the ReadSync row before it emptied the free
// list. Their ceilings, 0.05, are 5 % of the one buffer per op these reads
// allocated while the host gave every read a fresh one: a ceiling 5 % over
// ≈0 would fail on a single stray runtime object. A lent 64 KiB read rebuilt
// on a peer measures 1.000–1.027 and 1.000–1.055: the rebuilt segment still
// leaves the reducer's pool for good.
//
// Over loopback TCP, 16 KiB reads and random 16 KiB writes measure 1.001 and
// 1.002 bytes per user byte, 1.00 and 1.03–1.04 objects per op (a write's
// read-modify-write capsules decode their SGL entries from shared blocks).
// While the receiver read every payload into a fresh buffer and decoded each
// capsule's SGL into a slice of its own, the tree measured 2.00 and 3.00
// bytes, 2.00–2.01 and 4.02–4.04 objects.
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
	// degradedAll reads the chunks the failed member held, each rebuilt by a
	// reduction on a peer: the reconstruction path end to end.
	const failed = 2
	var lost []int64
	g := arr.Controller().Geometry()
	for s := int64(0); s < stripes; s++ {
		for c := 0; c < g.DataChunks(); c++ {
			if g.DataDrive(s, c) == failed {
				lost = append(lost, s*stripe+int64(c)*chunk)
			}
		}
	}
	degradedAll := func() {
		for i := 0; i < reads; i++ {
			if _, err := arr.ReadSync(lost[i%len(lost)], chunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The same datapath over loopback TCP, 16 KiB at a time: each frame's
	// payload is read into the receiving endpoint's pool, so what a user byte
	// costs is again the read's buffer or the write's private copy.
	tcp, err := draid.New(draid.Config{
		Backend: draid.BackendRealtime, Drives: 8, ChunkSize: chunk, DriveCapacity: stripes * chunk,
		Realtime: draid.RealtimeOptions{TCP: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	const (
		mid  = 16 << 10
		mids = 512
	)
	midData := randBytes(12, mid)
	tcpAll := func(seed int64, write bool) func() {
		return func() {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < mids; i++ {
				off := rng.Int63n(stripes*stripe/mid) * mid
				var err error
				if write {
					err = tcp.WriteSync(off, midData)
				} else {
					_, err = tcp.ReadSync(off, mid)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tcpReads, tcpWrites := tcpAll(13, false), tcpAll(14, true)

	// lent issues count asynchronous reads of n bytes on a, one at a time:
	// each borrows the array's buffer for its callback and hands it back.
	// readAtAll reads the same 128 KiB ranges as readAll into one slice of
	// ours.
	done := make(chan error, 1)
	lentCB := func(_ []byte, err error) { done <- err }
	lent := func(a *draid.Array, count int, n int64, at func(i int) int64) func() {
		return func() {
			for i := 0; i < count; i++ {
				a.Read(at(i), n, lentCB)
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	readOff := func(i int) int64 { return int64(i) * readLen % (stripes*stripe - readLen) }
	lentReads := lent(arr, reads, readLen, readOff)
	lentDegraded := lent(arr, reads, chunk, func(i int) int64 { return lost[i%len(lost)] })
	tcpLent := lent(tcp, mids, mid, func(i int) int64 { return int64(i) * mid % (stripes * stripe) })
	into := make([]byte, readLen)
	readAtAll := func() {
		for i := 0; i < reads; i++ {
			if _, err := arr.ReadAt(into, readOff(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for s := int64(0); s < stripes; s++ {
		if err := tcp.WriteSync(s*stripe, data); err != nil {
			t.Fatal(err)
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
	lentReads()
	readAtAll()
	smallAll()
	tcpReads()
	tcpLent()
	tcpWrites()

	for _, c := range []struct {
		what      string
		user, ops int64
		run       func()
		fail      bool
		ceiling   float64 // heap bytes per user byte
		objects   float64 // heap objects per op
	}{
		{"128 KiB reads", reads * readLen, reads, readAll, false, 1.25, 1.06},
		{"128 KiB reads, lent", reads * readLen, reads, lentReads, false, 0.05, 0.05},
		{"128 KiB ReadAt", reads * readLen, reads, readAtAll, false, 0.05, 0.05},
		{"full-stripe writes", stripes * stripe, stripes, writeAll, false, 1.40, 2.19},
		{"random 4 KiB writes", smalls * small, smalls, smallAll, false, 2.60, 1.09},
		{"16 KiB reads over TCP", mids * mid, mids, tcpReads, false, 1.05, 1.05},
		{"16 KiB reads over TCP, lent", mids * mid, mids, tcpLent, false, 0.05, 0.05},
		{"random 16 KiB writes over TCP", mids * mid, mids, tcpWrites, false, 1.05, 1.09},
		{"64 KiB reads, one member failed", reads * chunk, reads, degradedAll, true, 2.40, 2.16},
		{"64 KiB reads, one member failed, lent", reads * chunk, reads, lentDegraded, true, 1.08, 1.11},
	} {
		if c.fail {
			arr.FailDrive(failed)
			c.run() // warm up: the reconstruction path's free lists fill
		}
		got, objs := allocated(c.user, c.ops, c.run)
		t.Logf("%s: %.4f heap bytes allocated per user byte, %.3f heap objects per op", c.what, got, objs)
		if got > c.ceiling {
			t.Errorf("%s allocate %.2f heap bytes per user byte, want ≤ %.2f", c.what, got, c.ceiling)
		}
		if objs > c.objects {
			t.Errorf("%s allocate %.2f heap objects per op, want ≤ %.2f", c.what, objs, c.objects)
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
// measured 1.08 (writes) and 1.18 (reads). Now ≈0.002 and ≈0.002. Objects per
// op have ceilings at most 5 % over what this tree measures (2.39–2.41 per
// RMW write, 2.14–2.17 per degraded read: nearly all of it internal/fio's two
// closures per op, the host allocating nothing — TestHostIOAllocatesNothing).
// While the host ran each I/O on closures and fresh ops the tree measured
// 16.4 and 19.6; with a fresh reduceState per reduction and a fresh stripe
// lock per write, 18.4 per RMW write; with a closure chain per drive I/O and
// CPU slot in the servers and one closure per simulated drive op, ≈46 and
// ≈32.
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
		{"128 KiB RMW writes", 0, false, 0.25, 2.50},
		{"128 KiB reads, one member failed", 1, true, 0.25, 2.27},
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
		t.Logf("%s: %d ops, %.3f heap bytes allocated per user byte, %.2f heap objects per op", c.what, ops, got, objs)
		if got > c.ceiling {
			t.Errorf("%s allocate %.2f heap bytes per user byte, want ≤ %.2f", c.what, got, c.ceiling)
		}
		if objs > c.objects {
			t.Errorf("%s allocate %.2f heap objects per op, want ≤ %.2f", c.what, objs, c.objects)
		}
	}
}
