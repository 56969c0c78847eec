package blobfs

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

// onEachRuntime runs body against a fresh filesystem on a devSize-byte
// memory device, once on the simulation engine and once on a realtime bed's
// host loop. The filesystem is confined to its runtime, so the helpers below
// touch it inside Call and drain with Run.
func onEachRuntime(t *testing.T, devSize int64, latency sim.Duration, body func(t *testing.T, rt backend.Runner, fs *FS)) {
	t.Run("sim", func(t *testing.T) {
		rt := backend.SimRunner(sim.NewEngine(1))
		body(t, rt, New(rt, blockdev.NewMem(rt, devSize, latency)))
	})
	t.Run("realtime", func(t *testing.T) {
		rt := realtime.NewBed(1, 0)
		defer rt.Close()
		body(t, rt, New(rt, blockdev.NewMem(rt, devSize, latency)))
	})
}

func onEachFS(t *testing.T, body func(t *testing.T, rt backend.Runner, fs *FS)) {
	t.Helper()
	onEachRuntime(t, 8<<20, 5*sim.Microsecond, body)
}

var errPending = errors.New("callback never ran")

func createErr(rt backend.Runner, fs *FS, name string) (*File, error) {
	var f *File
	err := errPending
	rt.Call(func() { fs.Create(name, func(file *File, e error) { f, err = file, e }) })
	rt.Run()
	return f, err
}

func create(t *testing.T, rt backend.Runner, fs *FS, name string) *File {
	t.Helper()
	f, err := createErr(rt, fs, name)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	return f
}

func appendErr(rt backend.Runner, f *File, data parity.Buffer) error {
	err := errPending
	rt.Call(func() { f.Append(data, func(e error) { err = e }) })
	rt.Run()
	return err
}

func appendData(t *testing.T, rt backend.Runner, f *File, data []byte) {
	t.Helper()
	if err := appendErr(rt, f, parity.FromBytes(data)); err != nil {
		t.Fatalf("append: %v", err)
	}
}

func readErr(rt backend.Runner, f *File, off, n int64) ([]byte, error) {
	var out []byte
	err := errPending
	rt.Call(func() { f.ReadAt(off, n, func(b parity.Buffer, e error) { err, out = e, b.Data() }) })
	rt.Run()
	return out, err
}

func readAt(t *testing.T, rt backend.Runner, f *File, off, n int64) []byte {
	t.Helper()
	out, err := readErr(rt, f, off, n)
	if err != nil {
		t.Fatalf("readAt(%d,%d): %v", off, n, err)
	}
	return out
}

func remove(rt backend.Runner, fs *FS, name string) error {
	err := errPending
	rt.Call(func() { fs.Delete(name, func(e error) { err = e }) })
	rt.Run()
	return err
}

func TestCreateAppendRead(t *testing.T) {
	onEachFS(t, func(t *testing.T, rt backend.Runner, fs *FS) {
		f := create(t, rt, fs, "wal")
		appendData(t, rt, f, []byte("hello "))
		appendData(t, rt, f, []byte("world"))
		if f.Size() != 11 {
			t.Fatalf("size = %d", f.Size())
		}
		if got := readAt(t, rt, f, 0, 11); string(got) != "hello world" {
			t.Fatalf("got %q", got)
		}
		// Read spanning the extent boundary.
		if got := readAt(t, rt, f, 4, 4); string(got) != "o wo" {
			t.Fatalf("cross-extent read = %q", got)
		}
	})
}

func TestCreateDuplicateFails(t *testing.T) {
	onEachFS(t, func(t *testing.T, rt backend.Runner, fs *FS) {
		create(t, rt, fs, "a")
		if _, err := createErr(rt, fs, "a"); !errors.Is(err, ErrExists) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestOpenAndList(t *testing.T) {
	onEachFS(t, func(t *testing.T, rt backend.Runner, fs *FS) {
		create(t, rt, fs, "b")
		create(t, rt, fs, "a")
		if _, err := fs.Open("a"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open("zz"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v", err)
		}
		names := fs.List()
		if len(names) != 2 || names[0] != "a" || names[1] != "b" {
			t.Fatalf("list = %v", names)
		}
	})
}

func TestDeleteFreesAndReuses(t *testing.T) {
	onEachFS(t, func(t *testing.T, rt backend.Runner, fs *FS) {
		f := create(t, rt, fs, "big")
		appendData(t, rt, f, make([]byte, 1<<20))
		usedBefore := fs.next

		if err := remove(rt, fs, "big"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open("big"); !errors.Is(err, ErrNotFound) {
			t.Fatal("file still present")
		}
		// A new allocation should reuse the freed extent, not bump further.
		g := create(t, rt, fs, "new")
		appendData(t, rt, g, make([]byte, 1<<20))
		if fs.next != usedBefore {
			t.Fatalf("allocator bumped to %d; should have reused freed extent", fs.next)
		}
	})
}

func TestOutOfSpace(t *testing.T) {
	onEachRuntime(t, dataStart+4096, 0, func(t *testing.T, rt backend.Runner, fs *FS) {
		f := create(t, rt, fs, "f")
		if err := appendErr(rt, f, parity.Sized(8192)); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestReadBeyondEOF(t *testing.T) {
	onEachFS(t, func(t *testing.T, rt backend.Runner, fs *FS) {
		f := create(t, rt, fs, "f")
		appendData(t, rt, f, []byte("abc"))
		if _, err := readErr(rt, f, 2, 5); !errors.Is(err, blockdev.ErrOutOfRange) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestJournalWritesCounted(t *testing.T) {
	onEachFS(t, func(t *testing.T, rt backend.Runner, fs *FS) {
		f := create(t, rt, fs, "f")
		before := fs.JournalWrites()
		appendData(t, rt, f, []byte("x"))
		if fs.JournalWrites() != before+1 {
			t.Fatalf("journal writes = %d, want %d", fs.JournalWrites(), before+1)
		}
	})
}

func TestManyExtentsRead(t *testing.T) {
	onEachFS(t, func(t *testing.T, rt backend.Runner, fs *FS) {
		f := create(t, rt, fs, "f")
		var whole []byte
		for i := 0; i < 10; i++ {
			part := bytes.Repeat([]byte{byte('a' + i)}, 100)
			appendData(t, rt, f, part)
			whole = append(whole, part...)
		}
		got := readAt(t, rt, f, 150, 700)
		if !bytes.Equal(got, whole[150:850]) {
			t.Fatal("multi-extent read mismatch")
		}
	})
}

func TestCoalesceAdjacentFreeExtents(t *testing.T) {
	onEachFS(t, func(t *testing.T, rt backend.Runner, fs *FS) {
		a := create(t, rt, fs, "a")
		b := create(t, rt, fs, "b")
		appendData(t, rt, a, make([]byte, 1000))
		appendData(t, rt, b, make([]byte, 1000))
		remove(rt, fs, "a")
		remove(rt, fs, "b")
		// Freed neighbours must coalesce so a 2000-byte allocation fits.
		c := create(t, rt, fs, "c")
		appendData(t, rt, c, make([]byte, 2000))
		if len(c.extents) != 1 || c.extents[0].off != dataStart {
			t.Fatalf("extents = %+v, want single reused extent at data start", c.extents)
		}
	})
}
