package ssd

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"draid/internal/parity"
	"draid/internal/sim"
)

// The timing model's tests. What the drive holds and how it fails is the
// drive contract in contract_test.go, which runs on every backend's drive.

// testSpec: 1 GB/s read and write (1 byte/ns), zero latency, 1 MB capacity.
func testSpec() Spec {
	return Spec{Capacity: 1 << 20, ReadBps: 1e9, WriteBps: 1e9, StoreData: true}
}

func TestServiceTimeAndLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	spec := testSpec()
	spec.ReadLatency = 500
	d := New(eng, spec)
	var at sim.Time
	d.Read(0, 1000, func(parity.Buffer, error) { at = eng.Now() })
	eng.Run()
	// 1000 ns service + 500 ns latency.
	if at != 1500 {
		t.Fatalf("read completed at %d, want 1500", at)
	}
}

func TestBandwidthSharedBetweenReadsAndWrites(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, testSpec())
	var last sim.Time
	d.Write(0, parity.Sized(1000), func(error) { last = eng.Now() })
	d.Read(0, 1000, func(parity.Buffer, error) { last = eng.Now() })
	eng.Run()
	// Serialized through one pipe: 1000 + 1000.
	if last != 2000 {
		t.Fatalf("last completion %d, want 2000", last)
	}
}

func TestDistinctReadWriteRates(t *testing.T) {
	eng := sim.NewEngine(1)
	spec := testSpec()
	spec.WriteBps = 5e8 // half the read rate
	d := New(eng, spec)
	var wAt, rAt sim.Time
	d.Write(0, parity.Sized(1000), func(error) { wAt = eng.Now() })
	d.Read(0, 1000, func(parity.Buffer, error) { rAt = eng.Now() })
	eng.Run()
	if wAt != 2000 {
		t.Fatalf("write at %d, want 2000 (half rate)", wAt)
	}
	if rAt != 3000 {
		t.Fatalf("read at %d, want 3000 (queued behind write)", rAt)
	}
}

func TestThroughputSaturatesAtRate(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, testSpec())
	var last sim.Time
	const ops, size = 50, 10000
	for i := 0; i < ops; i++ {
		d.Write(int64(i*size), parity.Sized(size), func(error) { last = eng.Now() })
	}
	eng.Run()
	rate := float64(ops*size) / float64(last)
	if rate > 1.001 || rate < 0.99 {
		t.Fatalf("rate = %v B/ns, want ~1", rate)
	}
}

func TestFailDropsInFlightOps(t *testing.T) {
	eng := sim.NewEngine(1)
	spec := testSpec()
	spec.ReadLatency = 1000
	d := New(eng, spec)
	completed := false
	d.Read(0, 100, func(parity.Buffer, error) { completed = true })
	eng.At(50, func() { d.Fail() })
	eng.Run()
	if completed {
		t.Fatal("in-flight op completed after drive failed")
	}
}

func TestWriteSnapshotsBuffer(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, testSpec())
	buf := []byte{1, 2, 3}
	d.Write(0, parity.FromBytes(buf), func(error) {})
	buf[0] = 99 // mutate after submit; DMA semantics must have snapshotted
	eng.Run()
	if got := d.PeekSync(0, 1); got[0] != 1 {
		t.Fatalf("drive stored %d, want pre-mutation 1", got[0])
	}
}

// Property: arbitrary sequences of page-crossing writes followed by reads
// return exactly what was last written (sparse page store correctness).
func TestPropertySparseStoreConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine(seed)
		const pageSize = 64 << 10 // the page store's granularity
		d := New(eng, Spec{Capacity: 4 * pageSize, ReadBps: 1e9, WriteBps: 1e9, StoreData: true})
		shadow := make([]byte, 4*pageSize)
		for i := 0; i < 20; i++ {
			off := rng.Int63n(3 * pageSize)
			n := rng.Int63n(pageSize+1000) + 1
			if off+n > 4*pageSize {
				n = 4*pageSize - off
			}
			data := make([]byte, n)
			rng.Read(data)
			copy(shadow[off:off+n], data)
			d.Write(off, parity.FromBytes(data), func(error) {})
		}
		eng.Run()
		ok := true
		off := rng.Int63n(2 * pageSize)
		n := int64(2*pageSize) - off
		d.Read(off, n, func(b parity.Buffer, err error) {
			ok = err == nil && bytes.Equal(b.Data(), shadow[off:off+n])
		})
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(sim.NewEngine(1), Spec{})
}

func TestDefaultSpecSane(t *testing.T) {
	s := DefaultSpec()
	if s.WriteBps >= s.ReadBps {
		t.Fatal("default write rate should be below read rate")
	}
	if !s.StoreData {
		t.Fatal("default should store data")
	}
}
