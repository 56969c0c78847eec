package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"draid/internal/backend"
	"draid/internal/backend/realtime"
	"draid/internal/blobfs"
	"draid/internal/blockdev"
	"draid/internal/parity"
	"draid/internal/sim"
)

// bed is a store plus the runtime it is confined to: the simulation engine,
// or a realtime bed's host loop. Its helpers issue one op inside the runtime
// and drain it.
type bed struct {
	rt backend.Runner
	*DB
}

// onEachRuntime runs body against a fresh store on each substrate.
func onEachRuntime(t *testing.T, cfg Config, body func(t *testing.T, b bed)) {
	open := func(t *testing.T, rt backend.Runner) bed {
		dev := blockdev.NewMem(rt, 256<<20, 5*sim.Microsecond)
		db, err := Open(rt, blobfs.New(rt, dev), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return bed{rt, db}
	}
	t.Run("sim", func(t *testing.T) { body(t, open(t, backend.SimRunner(sim.NewEngine(1)))) })
	t.Run("realtime", func(t *testing.T) {
		rt := realtime.NewBed(1, 0)
		defer rt.Close()
		body(t, open(t, rt))
	})
}

// do runs fn inside the runtime and drains what it started.
func (b bed) do(fn func()) {
	b.rt.Call(fn)
	b.rt.Run()
}

func (b bed) put(t *testing.T, key uint64, val []byte) {
	t.Helper()
	err := errors.New("pending")
	b.do(func() { b.Put(key, parity.FromBytes(val), func(e error) { err = e }) })
	if err != nil {
		t.Fatalf("put %d: %v", key, err)
	}
}

func (b bed) get(key uint64) ([]byte, error) {
	var out []byte
	err := errors.New("pending")
	b.do(func() { b.Get(key, func(buf parity.Buffer, e error) { err, out = e, buf.Data() }) })
	return out, err
}

func (b bed) scan(start uint64, count int) (int, error) {
	var n int
	err := errors.New("pending")
	b.do(func() { b.Scan(start, count, func(visited int, e error) { n, err = visited, e }) })
	return n, err
}

func val(key uint64) []byte { return []byte(fmt.Sprintf("value-%d", key)) }

func TestPutGetMemtable(t *testing.T) {
	onEachRuntime(t, Config{}, func(t *testing.T, b bed) {
		b.put(t, 7, val(7))
		got, err := b.get(7)
		if err != nil || !bytes.HasPrefix(got, val(7)) {
			t.Fatalf("got %q err %v", got, err)
		}
		if b.Stats().MemHits != 1 {
			t.Fatalf("stats = %+v", b.Stats())
		}
	})
}

func TestGetMissing(t *testing.T) {
	onEachRuntime(t, Config{}, func(t *testing.T, b bed) {
		if _, err := b.get(123); !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestFlushToSSTableAndReadBack(t *testing.T) {
	onEachRuntime(t, Config{MemtableLimit: 16 << 10, ValueSlot: 1 << 10}, func(t *testing.T, b bed) {
		// 32 KB of puts forces at least one rotation.
		for k := uint64(0); k < 32; k++ {
			b.put(t, k, val(k))
		}
		b.do(b.Flush)
		if b.Stats().Flushes == 0 {
			t.Fatalf("stats = %+v, expected flushes", b.Stats())
		}
		for k := uint64(0); k < 32; k++ {
			got, err := b.get(k)
			if err != nil || !bytes.HasPrefix(got, val(k)) {
				t.Fatalf("key %d: got %q err %v", k, got, err)
			}
		}
		if b.Stats().TableReads == 0 {
			t.Fatal("reads should have hit SSTables after flush")
		}
	})
}

func TestUpdatesShadowOlderVersions(t *testing.T) {
	onEachRuntime(t, Config{MemtableLimit: 8 << 10, ValueSlot: 1 << 10}, func(t *testing.T, b bed) {
		b.put(t, 5, []byte("old"))
		for k := uint64(100); k < 120; k++ { // force flush of the old value
			b.put(t, k, val(k))
		}
		b.do(b.Flush)
		b.put(t, 5, []byte("new"))
		got, err := b.get(5)
		if err != nil || !bytes.HasPrefix(got, []byte("new")) {
			t.Fatalf("got %q err %v", got, err)
		}
	})
}

func TestCompactionMergesAndDedupes(t *testing.T) {
	onEachRuntime(t, Config{MemtableLimit: 4 << 10, ValueSlot: 1 << 10, L0CompactTrigger: 3}, func(t *testing.T, b bed) {
		// Write the same small key range repeatedly to build duplicate L0
		// tables and trigger compaction.
		for round := 0; round < 6; round++ {
			for k := uint64(0); k < 8; k++ {
				b.put(t, k, []byte(fmt.Sprintf("r%d-k%d", round, k)))
			}
			b.do(b.Flush)
		}
		if b.Stats().Compactions == 0 {
			t.Fatalf("stats = %+v, expected compactions", b.Stats())
		}
		_, l0, l1 := b.Levels()
		if l0 >= 3 || l1 != 1 {
			t.Fatalf("levels l0=%d l1=%d after compaction", l0, l1)
		}
		// Latest round's values must win.
		for k := uint64(0); k < 8; k++ {
			got, err := b.get(k)
			if err != nil || !bytes.HasPrefix(got, []byte(fmt.Sprintf("r5-k%d", k))) {
				t.Fatalf("key %d: got %q err %v", k, got, err)
			}
		}
	})
}

func TestGroupCommitBatchesWAL(t *testing.T) {
	// The delay is far above the wall-clock check below it, so a realtime
	// scheduling hiccup cannot close the gap.
	cfg := Config{GroupCommitBytes: 1 << 20, GroupCommitDelay: 200 * sim.Millisecond, SyncWAL: true}
	onEachRuntime(t, cfg, func(t *testing.T, b bed) {
		acked := 0
		b.rt.Call(func() {
			for i := uint64(0); i < 10; i++ {
				b.Put(i, parity.FromBytes(val(i)), func(err error) {
					if err != nil {
						t.Errorf("put: %v", err)
					}
					acked++
				})
			}
		})
		// Before the group-commit delay elapses, nothing is durable.
		b.rt.RunUntil(b.rt.Now() + sim.Time(5*sim.Millisecond))
		var early int
		b.rt.Call(func() { early = acked })
		if early != 0 {
			t.Fatalf("acked = %d before group commit", early)
		}
		b.rt.Run()
		if acked != 10 {
			t.Fatalf("acked = %d after group commit", acked)
		}
	})
}

func TestWriteStallsUnderL0Pressure(t *testing.T) {
	// Compaction is effectively disabled (trigger 100), so L0 only grows.
	cfg := Config{MemtableLimit: 2 << 10, ValueSlot: 1 << 10, L0CompactTrigger: 100, StallL0: 3}
	onEachRuntime(t, cfg, func(t *testing.T, b bed) {
		key := uint64(0)
		for {
			_, l0, _ := b.Levels()
			if l0 >= 3 {
				break
			}
			b.put(t, key, val(key))
			key++
			b.do(b.Flush)
		}
		acked := false
		b.do(func() { b.Put(999, parity.FromBytes(val(999)), func(error) { acked = true }) })
		if acked {
			t.Fatal("put acknowledged despite L0 stall")
		}
		if b.Stats().Stalls == 0 {
			t.Fatalf("stats = %+v, expected a stall", b.Stats())
		}
	})
}

func TestOversizeValueRejected(t *testing.T) {
	onEachRuntime(t, Config{ValueSlot: 64}, func(t *testing.T, b bed) {
		var err error
		b.do(func() { b.Put(1, parity.Sized(128), func(e error) { err = e }) })
		if err == nil {
			t.Fatal("oversize value accepted")
		}
	})
}

func TestElidedValuesFlowThrough(t *testing.T) {
	onEachRuntime(t, Config{MemtableLimit: 4 << 10, ValueSlot: 1 << 10}, func(t *testing.T, b bed) {
		b.do(func() {
			for k := uint64(0); k < 16; k++ {
				b.Put(k, parity.Sized(1000), func(err error) {
					if err != nil {
						t.Errorf("put: %v", err)
					}
				})
			}
			b.Flush()
		})
		var n int
		b.do(func() {
			b.Get(3, func(buf parity.Buffer, err error) {
				if err != nil {
					t.Errorf("get: %v", err)
				}
				n = buf.Len()
			})
		})
		if n == 0 {
			t.Fatal("no value returned")
		}
	})
}

func TestStatsProgression(t *testing.T) {
	onEachRuntime(t, Config{}, func(t *testing.T, b bed) {
		b.put(t, 1, val(1))
		if _, err := b.get(1); err != nil {
			t.Fatal(err)
		}
		s := b.Stats()
		if s.Puts != 1 || s.Gets != 1 {
			t.Fatalf("stats = %+v", s)
		}
	})
}

func TestScanAcrossLevels(t *testing.T) {
	onEachRuntime(t, Config{MemtableLimit: 8 << 10, ValueSlot: 1 << 10}, func(t *testing.T, b bed) {
		// Spread keys across SSTables and the memtable.
		for k := uint64(0); k < 40; k += 2 {
			b.put(t, k, val(k))
		}
		b.do(b.Flush)
		for k := uint64(1); k < 40; k += 2 {
			b.put(t, k, val(k))
		}
		n, err := b.scan(10, 12)
		if err != nil {
			t.Fatal(err)
		}
		if n != 12 {
			t.Fatalf("scanned %d records, want 12", n)
		}
	})
}

func TestScanPastEnd(t *testing.T) {
	onEachRuntime(t, Config{}, func(t *testing.T, b bed) {
		for k := uint64(0); k < 5; k++ {
			b.put(t, k, val(k))
		}
		if n, err := b.scan(3, 100); err != nil || n != 2 {
			t.Fatalf("scanned %d (err %v), want 2 (keys 3,4)", n, err)
		}
		if n, _ := b.scan(0, 0); n != 0 {
			t.Fatal("zero-count scan should visit nothing")
		}
	})
}

func TestYCSBEWorkloadRuns(t *testing.T) {
	onEachRuntime(t, Config{MemtableLimit: 16 << 10}, func(t *testing.T, b bed) {
		for k := uint64(0); k < 200; k++ {
			b.put(t, k, val(k))
		}
		b.do(b.Flush)
		done := 0
		b.do(func() {
			for i := 0; i < 20; i++ {
				b.Scan(uint64(i*7), 10, func(n int, err error) {
					if err != nil {
						t.Errorf("scan: %v", err)
					}
					done++
				})
			}
		})
		if done != 20 {
			t.Fatalf("done = %d", done)
		}
	})
}

func TestOpenReportsWhyTheWALWasNotCreated(t *testing.T) {
	rt := backend.SimRunner(sim.NewEngine(1))
	fs := blobfs.New(rt, blockdev.NewMem(rt, 8<<20, 0))
	fs.Create("wal-0", func(*blobfs.File, error) {})
	rt.Run()
	if _, err := Open(rt, fs, Config{}); !errors.Is(err, blobfs.ErrExists) {
		t.Fatalf("Open over an existing wal-0: %v, want it to wrap ErrExists", err)
	}
}
