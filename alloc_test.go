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
	// allocated runs fn and returns the heap bytes it allocated per user byte.
	allocated := func(userBytes int64, fn func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(userBytes)
	}

	// Warm up: the first pass allocates the drives' pages and fills the free
	// lists; steady state is what the rule is about.
	writeAll()
	readAll()

	for _, c := range []struct {
		what    string
		user    int64
		run     func()
		ceiling float64
	}{
		{"128 KiB reads", reads * readLen, readAll, 1.25},
		{"full-stripe writes", stripes * stripe, writeAll, 1.40},
	} {
		got := allocated(c.user, c.run)
		t.Logf("%s: %.3f heap bytes allocated per user byte", c.what, got)
		if got > c.ceiling {
			t.Errorf("%s allocate %.2f heap bytes per user byte, want ≤ %.2f", c.what, got, c.ceiling)
		}
	}
}
