package blockdev

import (
	"bytes"
	"errors"
	"testing"

	"draid/internal/backend"
	"draid/internal/parity"
	"draid/internal/sim"
)

func TestMemRoundTrip(t *testing.T) {
	eng := backend.SimRunner(sim.NewEngine(1))
	d := NewMem(eng, 1024, 10)
	var got []byte
	d.Write(100, parity.FromBytes([]byte{1, 2, 3}), func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		d.Read(100, 3, func(b parity.Buffer, err error) { got = b.Data() })
	})
	eng.Run()
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("got %v", got)
	}
}

func TestMemLatency(t *testing.T) {
	eng := backend.SimRunner(sim.NewEngine(1))
	d := NewMem(eng, 1024, 500)
	var at sim.Time
	d.Read(0, 1, func(parity.Buffer, error) { at = eng.Now() })
	eng.Run()
	if at != 500 {
		t.Fatalf("completed at %d, want 500", at)
	}
}

func TestMemOutOfRange(t *testing.T) {
	eng := backend.SimRunner(sim.NewEngine(1))
	d := NewMem(eng, 100, 0)
	var rErr, wErr error
	d.Read(90, 20, func(_ parity.Buffer, err error) { rErr = err })
	d.Write(-5, parity.Sized(1), func(err error) { wErr = err })
	eng.Run()
	if !errors.Is(rErr, ErrOutOfRange) || !errors.Is(wErr, ErrOutOfRange) {
		t.Fatalf("rErr=%v wErr=%v", rErr, wErr)
	}
}

func TestMemCallbacksAreAsync(t *testing.T) {
	eng := backend.SimRunner(sim.NewEngine(1))
	d := NewMem(eng, 100, 0)
	sync := true
	d.Read(0, 1, func(parity.Buffer, error) { sync = false })
	if !sync {
		t.Fatal("callback ran synchronously")
	}
	// Even error callbacks must be deferred.
	errSync := true
	d.Read(200, 1, func(parity.Buffer, error) { errSync = false })
	if !errSync {
		t.Fatal("error callback ran synchronously")
	}
	eng.Run()
	if sync || errSync {
		t.Fatal("callbacks never ran")
	}
}

func TestMemSnapshotsWriteBuffer(t *testing.T) {
	eng := backend.SimRunner(sim.NewEngine(1))
	d := NewMem(eng, 100, 50)
	buf := []byte{7}
	d.Write(0, parity.FromBytes(buf), func(error) {})
	buf[0] = 9
	eng.Run()
	var got byte
	d.Read(0, 1, func(b parity.Buffer, _ error) { got = b.Data()[0] })
	eng.Run()
	if got != 7 {
		t.Fatalf("got %d, want snapshot value 7", got)
	}
}

func TestMemElidedWriteLeavesDataIntact(t *testing.T) {
	eng := backend.SimRunner(sim.NewEngine(1))
	d := NewMem(eng, 100, 0)
	d.Write(0, parity.FromBytes([]byte{5}), func(error) {})
	eng.Run()
	d.Write(0, parity.Sized(1), func(error) {})
	eng.Run()
	var got byte
	d.Read(0, 1, func(b parity.Buffer, _ error) { got = b.Data()[0] })
	eng.Run()
	if got != 5 {
		t.Fatalf("elided write should not clobber; got %d", got)
	}
}

func TestCheckRange(t *testing.T) {
	if CheckRange(0, 10, 10) != nil {
		t.Fatal("exact fit should pass")
	}
	if CheckRange(0, 11, 10) == nil || CheckRange(-1, 1, 10) == nil || CheckRange(5, -1, 10) == nil {
		t.Fatal("out-of-range should fail")
	}
}
