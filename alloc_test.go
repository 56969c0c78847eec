package draid_test

import (
	"runtime"
	"testing"

	"draid"
)

// TestRealtimeAllocBytesPerUserByte guards the payload-ownership rule where
// `go test ./...` can see it: on the realtime chan/MemDrive datapath a user
// byte is allocated about once — the buffer a read returns, the private copy
// a write takes — and every other hop hands buffers on or recycles them.
// Clone a payload at one more hop and the ratio for that direction rises by
// 1.0, well past these ceilings (steady state measures ≈1.05 and ≈1.2; the
// stripe-write ceiling also covers the 1/7 parity chunk).
//
// It guards the object count the same way: heap objects allocated per user
// op (runtime.MemStats.Mallocs), ceilings 20 % over what this tree measures
// (≈109 per 128 KiB read, ≈296 per full-stripe write), so a per-op map,
// closure or capsule copy added to the hot path fails here — and a claim to
// have removed some starts from a floor the suite can see.
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

	for _, c := range []struct {
		what      string
		user, ops int64
		run       func()
		ceiling   float64 // heap bytes per user byte
		objects   float64 // heap objects per op
	}{
		{"128 KiB reads", reads * readLen, reads, readAll, 1.25, 131},
		{"full-stripe writes", stripes * stripe, stripes, writeAll, 1.40, 355},
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
