package backend

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"

	"draid/internal/parity"
	"draid/internal/sim"
)

// FuzzMedium drives the page store and the file store through one random
// sequence of writes, elided writes, trims, media-error and bit-rot injections
// and reads, against a flat []byte reference with one bad and one rot flag
// per byte: every read must agree byte for byte and error for error, and the
// counters must agree at the end.
func FuzzMedium(f *testing.F) {
	f.Add([]byte{0, 10, 0, 200, 0, 5, 12, 0, 20, 0, 3, 11, 0, 50, 0, 5, 0, 0, 255, 1})
	f.Add([]byte{0, 0, 0, 255, 127, 4, 0, 64, 0, 10, 2, 0, 64, 9, 0, 5, 255, 63, 9, 0, 1, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const size = 3*pageSize + 5000
		clock := func() sim.Time { return 0 }
		fm, err := NewFileMedium(clock, filepath.Join(t.TempDir(), "m.img"), size)
		if err != nil {
			t.Fatal(err)
		}
		defer fm.Close()
		media := map[string]*Medium{"pages": NewMedium(clock, size, true), "file": fm}
		ref, bad, rot := make([]byte, size), make([]bool, size), make([]bool, size)
		var want DriveStats
		ops = ops[:min(len(ops), 5*64)] // 64 ops: long inputs only slow the fuzzer down
		clean := func(off, n int64) {
			clear(bad[off : off+n])
			clear(rot[off : off+n])
		}
		for i := 0; len(ops) >= 5; i, ops = i+1, ops[5:] {
			// Offsets run from before the start to past the end; lengths are
			// odd, so never zero, and some are negative.
			off := int64(binary.LittleEndian.Uint16(ops[1:]))*4 - 8
			n := int64(binary.LittleEndian.Uint16(ops[3:]))*2 - 3
			inRange := off >= 0 && n >= 0 && off+n <= size
			for name, m := range media {
				if err := m.Check(off, n); (err == nil) != inRange || (err != nil && err != ErrOutOfRange) {
					t.Fatalf("op %d: %s: Check(%d, %d) = %v", i, name, off, n, err)
				}
			}
			if !inRange {
				continue
			}
			switch ops[0] % 6 {
			case 0: // write
				data := make([]byte, n)
				for k := range data {
					data[k] = byte(i*7 + k)
				}
				for _, m := range media {
					m.Write(off, parity.FromBytes(data))
				}
				copy(ref[off:], data)
				clean(off, n)
				want.WriteOps++
				want.WriteBytes += n
			case 1: // elided write: counted and remapped, nothing stored
				for _, m := range media {
					m.Write(off, parity.Sized(int(n)))
				}
				clean(off, n)
				want.WriteOps++
				want.WriteBytes += n
			case 2:
				for _, m := range media {
					m.Trim(off, n)
				}
				clear(ref[off : off+n])
				clean(off, n)
				want.TrimOps++
			case 3:
				for _, m := range media {
					m.InjectMediaError(off, n)
				}
				for k := off; k < off+n; k++ {
					bad[k] = true
				}
			case 4:
				for _, m := range media {
					m.InjectBitRot(off, n)
				}
				for k := off; k < off+n; k++ {
					ref[k] ^= 0x5A
					rot[k] = true
				}
			case 5:
				want.ReadOps++
				want.ReadBytes += n
				var wantErr *MediaError
				if lo := first(bad[off : off+n]); lo >= 0 {
					hi := lo
					for hi < n && bad[off+hi] {
						hi++
					}
					wantErr = &MediaError{Off: off + lo, N: hi - lo}
					want.MediaErrors++
				} else if first(rot[off:off+n]) >= 0 {
					want.CorruptReads++
				}
				for name, m := range media {
					b, ok, err := m.Read(off, n, nil)
					if !ok {
						t.Fatalf("op %d: %s: read dropped on a live medium", i, name)
					}
					if wantErr != nil {
						var me *MediaError
						if !errors.As(err, &me) || *me != *wantErr {
							t.Fatalf("op %d: %s: read [%d,+%d) = %v, want %v", i, name, off, n, err, wantErr)
						}
						continue
					}
					if err != nil || !bytes.Equal(b.Data(), ref[off:off+n]) {
						t.Fatalf("op %d: %s: read [%d,+%d) differs from the reference (err %v)", i, name, off, n, err)
					}
				}
			}
		}
		for name, m := range media {
			if got := m.Stats(); got != want {
				t.Fatalf("%s: stats %+v, want %+v", name, got, want)
			}
			if !bytes.Equal(m.PeekSync(0, size), ref) {
				t.Fatalf("%s: final contents differ from the reference", name)
			}
		}
	})
}

// TestMediumReadFillsARecycledBuffer: a drive read lands in a pooled buffer
// that is not zeroed first, so both stores must write every byte of it —
// never-written pages, and the file store's bytes past the end of its file,
// as zeros.
func TestMediumReadFillsARecycledBuffer(t *testing.T) {
	const size = 4 * pageSize
	clock := func() sim.Time { return 0 }
	fm, err := NewFileMedium(clock, filepath.Join(t.TempDir(), "m.img"), size)
	if err != nil {
		t.Fatal(err)
	}
	defer fm.Close()
	for name, m := range map[string]*Medium{"pages": NewMedium(clock, size, true), "file": fm} {
		data := bytes.Repeat([]byte{7}, 100)
		m.Write(pageSize+10, parity.FromBytes(data))
		want := make([]byte, size)
		copy(want[pageSize+10:], data)
		bufs := parity.NewPool()
		dirty := bufs.Get(size)
		for k := range dirty.Data() {
			dirty.Data()[k] = 0xEE
		}
		dirty.Release()
		b, ok, err := m.Read(0, size, bufs)
		if !ok || err != nil || &b.Data()[0] != &dirty.Data()[0] {
			t.Fatalf("%s: read did not land in the recycled buffer (ok %v, err %v)", name, ok, err)
		}
		if !bytes.Equal(b.Data(), want) {
			t.Fatalf("%s: a read over unwritten bytes kept what the recycled buffer held", name)
		}
	}
}

// first returns the index of the first set flag, or -1.
func first(flags []bool) int64 {
	for i, f := range flags {
		if f {
			return int64(i)
		}
	}
	return -1
}
