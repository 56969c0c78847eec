package baseline_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"draid/internal/baseline"
	"draid/internal/cpu"
	"draid/internal/parity"
	"draid/internal/raid"
	"draid/internal/sim"
	"draid/internal/simnet"
	"draid/internal/ssd"
)

const chunkSize = 64 << 10

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func newSingleMachine(t *testing.T) (*sim.Engine, *baseline.SingleMachine) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.DefaultConfig())
	drv := ssd.DefaultSpec()
	drv.Capacity = 64 << 20
	geo := raid.Geometry{Level: raid.Raid5, Width: 5, ChunkSize: chunkSize}
	return eng, baseline.NewSingleMachine(eng, net, geo, drv, cpu.DefaultCosts(), 100)
}

func TestSingleMachineRoundTrip(t *testing.T) {
	eng, sm := newSingleMachine(t)
	data := randBytes(13, 100<<10)
	err := errors.New("pending")
	sm.Write(8<<10, parity.FromBytes(data), func(e error) { err = e })
	eng.Run()
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	var got []byte
	sm.Read(8<<10, int64(len(data)), func(b parity.Buffer, e error) { err, got = e, b.Data() })
	eng.Run()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read err=%v match=%v", err, bytes.Equal(got, data))
	}
}

func TestSingleMachineDegradedReadOnexTraffic(t *testing.T) {
	eng, sm := newSingleMachine(t)
	data := randBytes(14, 64<<10)
	errp := errors.New("pending")
	sm.Write(0, parity.FromBytes(data), func(e error) { errp = e })
	eng.Run()
	if errp != nil {
		t.Fatal(errp)
	}
	sm.SetFailed(4, true) // whichever member; reads of its chunks reconstruct locally
	sm.Client().ResetCounters()
	var got []byte
	sm.Read(0, int64(len(data)), func(b parity.Buffer, e error) { errp, got = e, b.Data() })
	eng.Run()
	if errp != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded read err=%v", errp)
	}
	in := sm.Client().BytesIn()
	if ratio := float64(in) / float64(len(data)); ratio > 1.1 {
		t.Fatalf("client inbound = %.2f×, want ~1× (reconstruction stays in the box)", ratio)
	}
}

func TestSingleMachineWriteOnexTraffic(t *testing.T) {
	eng, sm := newSingleMachine(t)
	data := randBytes(15, 64<<10)
	errp := errors.New("pending")
	sm.Client().ResetCounters()
	sm.Write(0, parity.FromBytes(data), func(e error) { errp = e })
	eng.Run()
	if errp != nil {
		t.Fatal(errp)
	}
	out := sm.Client().BytesOut()
	if ratio := float64(out) / float64(len(data)); ratio > 1.1 {
		t.Fatalf("client outbound = %.2f×, want ~1×", ratio)
	}
	if sm.Describe() == "" {
		t.Fatal("empty description")
	}
}

// SingleMachine degraded write path and Size.
func TestSingleMachineDegradedWriteAndSize(t *testing.T) {
	eng, sm := newSingleMachine(t)
	if sm.Size() <= 0 {
		t.Fatal("size")
	}
	seed := randBytes(28, 4*64<<10)
	errp := errors.New("pending")
	sm.Write(0, parity.FromBytes(seed), func(e error) { errp = e })
	eng.Run()
	if errp != nil {
		t.Fatal(errp)
	}
	// Out-of-range checks.
	var oErr error
	sm.Read(sm.Size(), 4, func(_ parity.Buffer, e error) { oErr = e })
	eng.Run()
	if oErr == nil {
		t.Fatal("out-of-range read accepted")
	}
	sm.Write(-1, parity.Sized(4), func(e error) { oErr = e })
	eng.Run()
	if oErr == nil {
		t.Fatal("out-of-range write accepted")
	}
}

func TestSingleMachineReconstructLocal(t *testing.T) {
	eng, sm := newSingleMachine(t)
	seed := randBytes(29, 4*64<<10) // full stripe at 64 KB chunks, width 5
	errp := errors.New("pending")
	sm.Write(0, parity.FromBytes(seed), func(e error) { errp = e })
	eng.Run()
	if errp != nil {
		t.Fatal(errp)
	}
	// Fail the member holding chunk 0 and read it back (local XOR).
	g := raid.Geometry{Level: raid.Raid5, Width: 5, ChunkSize: chunkSize}
	sm.SetFailed(g.DataDrive(0, 0), true)
	var got []byte
	sm.Read(0, chunkSize, func(b parity.Buffer, e error) { errp, got = e, b.Data() })
	eng.Run()
	if errp != nil || !bytes.Equal(got, seed[:chunkSize]) {
		t.Fatalf("local reconstruction mismatch err=%v", errp)
	}
}
