package realtime

import (
	"bytes"
	"path/filepath"
	"testing"

	"draid/internal/backend"
	"draid/internal/parity"
)

// TestDriveReadBuffersRecycle pins the read side of both realtime drives'
// media boundary: a released read buffer serves the next read of its size,
// and still reads as the media does — zeros where nothing was ever written,
// whatever the buffer held before.
func TestDriveReadBuffersRecycle(t *testing.T) {
	bed := NewBed(1, 1)
	defer bed.Close()
	rt := bed.NodeRuntime(0)
	file, err := NewFileDrive(rt, filepath.Join(t.TempDir(), "d.img"), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for name, d := range map[string]backend.Drive{"mem": NewMemDrive(rt, 1<<20, true), "file": file} {
		t.Run(name, func(t *testing.T) {
			const n = 96 << 10 // one and a half pages of the memory store
			read := func(off int64) parity.Buffer {
				var got parity.Buffer
				d.Read(off, n, func(b parity.Buffer, err error) {
					if err != nil {
						t.Errorf("read at %d: %v", off, err)
					}
					got = b
				})
				bed.Run()
				return got
			}
			payload := parity.FromBytes(bytes.Repeat([]byte{0xAB}, n))
			d.Write(0, payload, func(err error) {
				if err != nil {
					t.Errorf("write: %v", err)
				}
			})
			bed.Run()

			first := read(0)
			if !bytes.Equal(first.Data(), payload.Data()) {
				t.Fatal("read does not return the written bytes")
			}
			storage := &first.Data()[0]
			first.Release()

			// Same size, never-written range: the recycled buffer is full of
			// 0xAB and must come back as zeros.
			second := read(512 << 10)
			if &second.Data()[0] != storage {
				t.Fatal("a released read buffer should serve the next read of its size")
			}
			if !bytes.Equal(second.Data(), make([]byte, n)) {
				t.Fatal("recycled read buffer leaked stale bytes into a never-written range")
			}
			second.Release()
			if st := d.(backend.BufferAccounting).BufferStats(); st.Outstanding() != 0 || st.Hits != 1 {
				t.Fatalf("read free list: %+v", st)
			}
		})
	}
}
