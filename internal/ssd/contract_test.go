package ssd_test

// The drive contract: what a drive holds and how it fails. Every test in this
// file is one case of it, run on each backend's drive — the simulated SSD,
// and the realtime drive over memory and over a file. They all sit on one
// backend.Medium, so the cases pin that medium through each drive's clock.

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"draid/internal/backend"
	"draid/internal/backend/realtime"
	"draid/internal/integrity"
	"draid/internal/parity"
	"draid/internal/sim"
	"draid/internal/ssd"
)

const capacity = 1 << 20

// rig is a drive plus its backend's clock and drain.
type rig struct {
	backend.Drive
	run func() // returns once every op issued so far has completed
	now func() sim.Time
}

// kinds builds a fresh 1 MiB data-bearing drive of each kind.
var kinds = []struct {
	name string
	new  func(t *testing.T) rig
}{
	{"sim", func(t *testing.T) rig {
		eng := sim.NewEngine(1)
		return rig{ssd.New(eng, ssd.Spec{Capacity: capacity, ReadBps: 1e9, WriteBps: 1e9, StoreData: true}), func() { eng.Run() }, eng.Now}
	}},
	{"mem", func(t *testing.T) rig {
		rt, run := loop(t)
		return rig{realtime.NewMemDrive(rt, capacity, true), run, rt.Now}
	}},
	{"file", func(t *testing.T) rig {
		rt, run := loop(t)
		d, err := realtime.NewFileDrive(rt, filepath.Join(t.TempDir(), "d.img"), capacity)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return rig{d, run, rt.Now}
	}},
}

// loop starts a one-target realtime bed for the test.
func loop(t *testing.T) (backend.Runtime, func()) {
	bed := realtime.NewBed(1, 1)
	t.Cleanup(func() { bed.Close() })
	return bed.NodeRuntime(0), bed.Run
}

// eachDrive runs one contract case on every kind of drive.
func eachDrive(t *testing.T, fn func(t *testing.T, d rig)) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) { fn(t, k.new(t)) })
	}
}

var errPending = errors.New("no callback")

func (d rig) write(off int64, b parity.Buffer) error {
	err := errPending
	d.Write(off, b, func(e error) { err = e })
	d.run()
	return err
}

func (d rig) mustWrite(t *testing.T, off int64, p []byte) {
	t.Helper()
	if err := d.write(off, parity.FromBytes(p)); err != nil {
		t.Fatalf("write [%d,+%d): %v", off, len(p), err)
	}
}

func (d rig) read(off, n int64) ([]byte, error) {
	var got parity.Buffer
	err := errPending
	d.Read(off, n, func(b parity.Buffer, e error) { got, err = b, e })
	d.run()
	return got.Data(), err
}

func (d rig) mustRead(t *testing.T, off, n int64) []byte {
	t.Helper()
	got, err := d.read(off, n)
	if err != nil {
		t.Fatalf("read [%d,+%d): %v", off, n, err)
	}
	return got
}

func (d rig) trim(off, n int64) error {
	err := errPending
	d.Trim(off, n, func(e error) { err = e })
	d.run()
	return err
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	eachDrive(t, func(t *testing.T, d rig) {
		payload := []byte("hello, raid world")
		d.mustWrite(t, 100, payload)
		if got := d.mustRead(t, 100, int64(len(payload))); !bytes.Equal(got, payload) {
			t.Fatalf("got %q, want %q", got, payload)
		}
	})
}

func TestUnwrittenRangeReadsZeros(t *testing.T) {
	eachDrive(t, func(t *testing.T, d rig) {
		d.mustWrite(t, 0, []byte{1})
		if got := d.mustRead(t, 5000, 10); !bytes.Equal(got, make([]byte, 10)) {
			t.Fatalf("unwritten range reads %v", got)
		}
	})
}

func TestOutOfRange(t *testing.T) {
	eachDrive(t, func(t *testing.T, d rig) {
		_, rErr := d.read(capacity-5, 10)
		_, nErr := d.read(0, -1)
		_, oErr := d.read(1, math.MaxInt64) // off+n overflows
		wErr := d.write(-1, parity.Sized(1))
		tErr := d.trim(capacity, 1)
		for _, err := range []error{rErr, nErr, oErr, wErr, tErr} {
			if err != backend.ErrOutOfRange {
				t.Fatalf("errors %v, %v, %v, %v, %v; want ErrOutOfRange", rErr, nErr, oErr, wErr, tErr)
			}
		}
		if st := d.Stats(); st != (backend.DriveStats{}) {
			t.Fatalf("rejected ops were counted: %+v", st)
		}
	})
}

func TestFailedDriveNeverCompletes(t *testing.T) {
	eachDrive(t, func(t *testing.T, d rig) {
		d.mustWrite(t, 0, []byte{42})
		d.Fail()
		if !d.Failed() {
			t.Fatal("Failed() false after Fail()")
		}
		if _, err := d.read(0, 1); err != errPending {
			t.Fatalf("read on a failed drive called back: %v", err)
		}
		if err := d.write(0, parity.FromBytes([]byte{7})); err != errPending {
			t.Fatalf("write on a failed drive called back: %v", err)
		}
		if err := d.trim(0, 1); err != errPending {
			t.Fatalf("trim on a failed drive called back: %v", err)
		}
	})
}

func TestRecoverRetainsData(t *testing.T) {
	eachDrive(t, func(t *testing.T, d rig) {
		d.mustWrite(t, 0, []byte{42})
		d.Fail()
		d.Recover()
		if got := d.mustRead(t, 0, 1); got[0] != 42 {
			t.Fatalf("data lost across transient failure: %v", got)
		}
	})
}

func TestMediaErrorReadCompletesWithError(t *testing.T) {
	eachDrive(t, func(t *testing.T, d rig) {
		d.mustWrite(t, 0, make([]byte, 8192))
		d.InjectMediaError(4096, 512)
		// A read missing the bad range succeeds.
		d.mustRead(t, 0, 4096)
		// A read overlapping it completes (does not hang) with a typed error
		// naming the overlap.
		_, err := d.read(0, 8192)
		var me *backend.MediaError
		if !errors.As(err, &me) || !errors.Is(err, backend.ErrMediaError) {
			t.Fatalf("read error = %v, want MediaError", err)
		}
		if me.Off != 4096 || me.N != 512 {
			t.Fatalf("bad range = [%d,+%d), want [4096,+512)", me.Off, me.N)
		}
		if s := d.Stats(); s.MediaErrors != 1 {
			t.Fatalf("MediaErrors = %d, want 1", s.MediaErrors)
		}
		// Writing over the range remaps the sectors: the error clears.
		d.mustWrite(t, 4096, make([]byte, 512))
		d.mustRead(t, 0, 8192)
	})
}

func TestBitRotSilentlyCorrupts(t *testing.T) {
	eachDrive(t, func(t *testing.T, d rig) {
		payload := []byte("integrity matters")
		d.mustWrite(t, 100, payload)
		d.InjectBitRot(100, 4)
		got := d.mustRead(t, 100, int64(len(payload)))
		if bytes.Equal(got[:4], payload[:4]) {
			t.Fatal("payload not corrupted")
		}
		if !bytes.Equal(got[4:], payload[4:]) {
			t.Fatal("rot leaked outside injected range")
		}
		if s := d.Stats(); s.CorruptReads != 1 {
			t.Fatalf("CorruptReads = %d, want 1", s.CorruptReads)
		}
		// Rewriting restores clean data and stops counting corrupt reads.
		d.mustWrite(t, 100, payload)
		if got := d.mustRead(t, 100, int64(len(payload))); !bytes.Equal(got, payload) {
			t.Fatal("rewrite did not restore data")
		}
		if s := d.Stats(); s.CorruptReads != 1 {
			t.Fatal("clean read after rewrite still counted as corrupt")
		}
	})
}

// TestLatentErrorRateDevelopsUREs: at rate 1 every read develops a 4 KiB
// sector of URE inside its own range and fails on it. The draws come from the
// injection seed alone, so every kind of drive develops the same map.
func TestLatentErrorRateDevelopsUREs(t *testing.T) {
	var maps [][]integrity.Span
	eachDrive(t, func(t *testing.T, d rig) {
		d.SetLatentErrorRate(1, 42)
		reads := []struct{ off, n int64 }{{5000, 20000}, {300 << 10, 64 << 10}, {capacity - 3000, 3000}}
		for _, r := range reads {
			before := len(d.MediaErrorRanges())
			_, err := d.read(r.off, r.n)
			var me *backend.MediaError
			if !errors.As(err, &me) {
				t.Fatalf("read [%d,+%d) at rate 1: %v, want a MediaError", r.off, r.n, err)
			}
			if me.Off < r.off || me.Off+me.N > r.off+r.n {
				t.Fatalf("latent error [%d,+%d) outside the read [%d,+%d)", me.Off, me.N, r.off, r.n)
			}
			spans := d.MediaErrorRanges()
			if len(spans) != before+1 {
				t.Fatalf("read [%d,+%d) developed %d new ranges, want 1", r.off, r.n, len(spans)-before)
			}
		}
		// Each range is a 4 KiB sector, clipped at most to its read's start
		// and to the capacity.
		for i, s := range d.MediaErrorRanges() {
			if (s.Off%4096 != 0 && s.Off != reads[i].off) || (s.End()%4096 != 0 && s.End() != capacity) || s.Len > 4096 {
				t.Fatalf("latent range [%d,+%d) is not a clipped 4 KiB sector", s.Off, s.Len)
			}
		}
		maps = append(maps, d.MediaErrorRanges())
	})
	for i := 1; i < len(maps); i++ {
		if !reflect.DeepEqual(maps[i], maps[0]) {
			t.Fatalf("same seed, different latent maps: %s %v vs %s %v", kinds[i].name, maps[i], kinds[0].name, maps[0])
		}
	}
}

func TestTrimZeroesAndClears(t *testing.T) {
	eachDrive(t, func(t *testing.T, d rig) {
		want := bytes.Repeat([]byte{0xAB}, 96<<10) // one and a half pages
		d.mustWrite(t, 0, want)
		d.InjectMediaError(8<<10, 512)
		d.InjectBitRot(60<<10, 8<<10) // across the page boundary
		const off, n = 1000, 70 << 10
		if err := d.trim(off, n); err != nil {
			t.Fatalf("trim: %v", err)
		}
		clear(want[off : off+n])
		if got := d.mustRead(t, 0, int64(len(want))); !bytes.Equal(got, want) {
			t.Fatal("trimmed range does not read as zeros, or the trim reached past it")
		}
		if st := d.Stats(); st.TrimOps != 1 || st.CorruptReads != 0 || len(d.MediaErrorRanges()) != 0 {
			t.Fatalf("trim left fault state: %+v, media %v", st, d.MediaErrorRanges())
		}
	})
}

// TestElidedMode: an elided payload carries no bytes, so writing one to a
// data-bearing drive stores nothing; a size-only drive returns elided reads.
func TestElidedMode(t *testing.T) {
	eachDrive(t, func(t *testing.T, d rig) {
		d.mustWrite(t, 0, []byte{1, 2, 3})
		if err := d.write(1, parity.Sized(5)); err != nil {
			t.Fatalf("elided write: %v", err)
		}
		if got := d.mustRead(t, 0, 6); !bytes.Equal(got, []byte{1, 2, 3, 0, 0, 0}) {
			t.Fatalf("an elided write stored %v", got)
		}
	})
	eng := sim.NewEngine(1)
	rt, run := loop(t)
	for name, d := range map[string]rig{
		"sim": {ssd.New(eng, ssd.Spec{Capacity: capacity, ReadBps: 1e9, WriteBps: 1e9}), func() { eng.Run() }, eng.Now},
		"mem": {realtime.NewMemDrive(rt, capacity, false), run, rt.Now},
	} {
		var got parity.Buffer
		d.Write(0, parity.FromBytes([]byte{1, 2, 3}), func(error) {})
		d.Read(0, 3, func(b parity.Buffer, err error) { got = b })
		d.run()
		if !got.Elided() || got.Len() != 3 || d.StoresData() {
			t.Fatalf("%s: size-only drive returned %+v", name, got)
		}
		if d.PeekSync(0, 3) != nil {
			t.Fatalf("%s: PeekSync on a size-only drive should be nil", name)
		}
	}
}

func TestStallProfileDelaysCompletion(t *testing.T) {
	const stall = 20 * time.Millisecond
	eachDrive(t, func(t *testing.T, d rig) {
		d.SetSlowProfile(backend.SlowProfile{Kind: backend.SlowStall, Stall: sim.Duration(stall), Period: sim.Duration(time.Hour)}, 1)
		start := d.now()
		var done sim.Time
		d.Read(0, 4096, func(parity.Buffer, error) { done = d.now() })
		d.run()
		if took := time.Duration(done - start); took < stall {
			t.Fatalf("read under a %v stall completed after %v", stall, took)
		}
		d.SetSlowProfile(backend.SlowProfile{}, 1)
		if d.SlowProfileInstalled().Kind != backend.SlowNone {
			t.Fatal("clearing the profile left it installed")
		}
	})
}

func TestStats(t *testing.T) {
	eachDrive(t, func(t *testing.T, d rig) {
		d.mustWrite(t, 0, make([]byte, 100))
		d.mustRead(t, 0, 50)
		d.mustRead(t, 0, 50)
		if err := d.trim(0, 10); err != nil {
			t.Fatal(err)
		}
		want := backend.DriveStats{WriteOps: 1, WriteBytes: 100, ReadOps: 2, ReadBytes: 100, TrimOps: 1}
		if s := d.Stats(); s != want {
			t.Fatalf("stats = %+v, want %+v", s, want)
		}
	})
}
