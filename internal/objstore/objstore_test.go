package objstore

import (
	"bytes"
	"errors"
	"testing"

	"draid/internal/backend"
	"draid/internal/backend/realtime"
	"draid/internal/blockdev"
	"draid/internal/parity"
	"draid/internal/sim"
)

// bed is a store on a memory device plus the runtime both are confined to:
// the simulation engine, or a realtime bed's host loop.
type bed struct {
	rt backend.Runner
	*Store
}

// onEachRuntime runs body against a fresh store on each substrate.
func onEachRuntime(t *testing.T, devSize, objSize int64, body func(t *testing.T, b bed)) {
	open := func(rt backend.Runner) bed {
		return bed{rt, New(rt, blockdev.NewMem(rt, devSize, 10*sim.Microsecond), objSize)}
	}
	t.Run("sim", func(t *testing.T) { body(t, open(backend.SimRunner(sim.NewEngine(1)))) })
	t.Run("realtime", func(t *testing.T) {
		rt := realtime.NewBed(1, 0)
		defer rt.Close()
		body(t, open(rt))
	})
}

var errPending = errors.New("callback never ran")

// put and get issue one op inside the runtime and drain it.
func (b bed) put(key uint64, data parity.Buffer) error {
	err := errPending
	b.rt.Call(func() { b.Put(key, data, func(e error) { err = e }) })
	b.rt.Run()
	return err
}

func (b bed) get(key uint64) (parity.Buffer, error) {
	var out parity.Buffer
	err := errPending
	b.rt.Call(func() { b.Get(key, func(buf parity.Buffer, e error) { out, err = buf, e }) })
	b.rt.Run()
	return out, err
}

func TestPutGetRoundTrip(t *testing.T) {
	onEachRuntime(t, 1<<20, 4096, func(t *testing.T, b bed) {
		want := []byte("object payload")
		if err := b.put(42, parity.FromBytes(want)); err != nil {
			t.Fatalf("put: %v", err)
		}
		got, err := b.get(42)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if !bytes.Equal(got.Data()[:len(want)], want) {
			t.Fatalf("got %q, want %q", got.Data()[:len(want)], want)
		}
		if b.Len() != 1 {
			t.Fatalf("len = %d", b.Len())
		}
	})
}

func TestGetMissing(t *testing.T) {
	onEachRuntime(t, 1<<20, 4096, func(t *testing.T, b bed) {
		if _, err := b.get(7); !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestOverwriteSameSlot(t *testing.T) {
	onEachRuntime(t, 1<<20, 4096, func(t *testing.T, b bed) {
		b.put(1, parity.FromBytes([]byte("v1")))
		b.put(1, parity.FromBytes([]byte("v2")))
		if b.Len() != 1 {
			t.Fatalf("len = %d after overwrite", b.Len())
		}
		if got, _ := b.get(1); string(got.Data()[:2]) != "v2" {
			t.Fatalf("got %q", got.Data()[:2])
		}
	})
}

func TestCollisionProbing(t *testing.T) {
	onEachRuntime(t, 16*4096, 4096, func(t *testing.T, b bed) { // 16 slots
		// Insert more keys than likely collision-free; all must coexist.
		for k := uint64(0); k < 12; k++ {
			if err := b.put(k, parity.FromBytes([]byte{byte(k)})); err != nil {
				t.Fatalf("put %d: %v", k, err)
			}
		}
		for k := uint64(0); k < 12; k++ {
			got, err := b.get(k)
			if err != nil {
				t.Fatalf("get %d: %v", k, err)
			}
			if got.Data()[0] != byte(k) {
				t.Fatalf("key %d read wrong slot (got %d)", k, got.Data()[0])
			}
		}
	})
}

func TestFull(t *testing.T) {
	onEachRuntime(t, 2*4096, 4096, func(t *testing.T, b bed) {
		for k := uint64(0); k < 2; k++ {
			if err := b.put(k, parity.FromBytes([]byte{1})); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		if err := b.put(99, parity.FromBytes([]byte{1})); !errors.Is(err, ErrFull) {
			t.Fatalf("err = %v, want ErrFull", err)
		}
	})
}

func TestDeleteFreesSlot(t *testing.T) {
	onEachRuntime(t, 2*4096, 4096, func(t *testing.T, b bed) {
		b.put(1, parity.FromBytes([]byte{1}))
		b.put(2, parity.FromBytes([]byte{2}))
		if err := b.Delete(1); err != nil {
			t.Fatal(err)
		}
		if b.Delete(1) == nil {
			t.Fatal("double delete should fail")
		}
		if err := b.put(3, parity.FromBytes([]byte{3})); err != nil {
			t.Fatalf("put after delete: %v", err)
		}
	})
}

func TestOversizeRejected(t *testing.T) {
	onEachRuntime(t, 1<<20, 1024, func(t *testing.T, b bed) {
		if b.put(1, parity.Sized(2048)) == nil {
			t.Fatal("oversize object accepted")
		}
	})
}

func TestElidedPayloads(t *testing.T) {
	onEachRuntime(t, 1<<20, 4096, func(t *testing.T, b bed) {
		if err := b.put(5, parity.Sized(1000)); err != nil {
			t.Fatalf("put: %v", err)
		}
		if got, _ := b.get(5); got.Len() != 4096 {
			t.Fatalf("got %d bytes, want full slot", got.Len())
		}
		puts, gets := b.Stats()
		if puts != 1 || gets != 1 {
			t.Fatalf("stats = %d,%d", puts, gets)
		}
	})
}
