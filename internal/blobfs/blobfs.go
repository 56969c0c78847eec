// Package blobfs is a minimal user-space extent filesystem over a block
// device — the stand-in for SPDK's BlobFS that the paper runs RocksDB on
// (§9.6). Files are append-only sequences of extents; file metadata lives in
// memory and is made durable through a small journal region at the head of
// the device (the "super-block" traffic the paper observes BlobFS
// generating).
package blobfs

import (
	"errors"
	"fmt"
	"sort"

	"draid/internal/backend"
	"draid/internal/blockdev"
	"draid/internal/parity"
)

// Errors returned by the filesystem.
var (
	ErrExists   = errors.New("blobfs: file exists")
	ErrNotFound = errors.New("blobfs: file not found")
	ErrNoSpace  = errors.New("blobfs: out of space")
)

const (
	journalSlot  = 4 << 10 // one journal write
	journalSlots = 255     // journal region = 1 MB minus superblock
	dataStart    = 1 << 20 // data region starts after the journal
)

type extent struct {
	off int64 // device offset
	len int64
}

// File is an append-only file.
type File struct {
	fs      *FS
	name    string
	extents []extent
	size    int64
}

// FS is the filesystem. It and its files are confined to the device's
// runtime: call them from a runtime callback (or inside Runner.Call).
type FS struct {
	eng     backend.Runtime
	dev     blockdev.Device
	files   map[string]*File
	next    int64 // bump allocator
	free    []extent
	jSlot   int64
	jWrites int64
}

// New formats a filesystem over the device.
func New(eng backend.Runtime, dev blockdev.Device) *FS {
	if dev.Size() <= dataStart {
		panic(fmt.Sprintf("blobfs: device %d bytes too small", dev.Size()))
	}
	return &FS{eng: eng, dev: dev, files: make(map[string]*File), next: dataStart}
}

// journal persists a metadata mutation: one 4 KB write into the round-robin
// journal region. All metadata-changing operations pay this I/O.
func (fs *FS) journal(cb func(error)) {
	off := journalSlot * (1 + fs.jSlot%journalSlots)
	fs.jSlot++
	fs.jWrites++
	fs.dev.Write(off, parity.Sized(journalSlot), cb)
}

// JournalWrites reports metadata journal I/O count (superblock traffic).
func (fs *FS) JournalWrites() int64 { return fs.jWrites }

// Create makes an empty file.
func (fs *FS) Create(name string, cb func(*File, error)) {
	if _, dup := fs.files[name]; dup {
		fs.eng.Defer(func() { cb(nil, ErrExists) })
		return
	}
	f := &File{fs: fs, name: name}
	fs.files[name] = f
	fs.journal(func(err error) { cb(f, err) })
}

// Open returns an existing file.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, ErrNotFound
	}
	return f, nil
}

// Delete removes a file and frees its extents.
func (fs *FS) Delete(name string, cb func(error)) {
	f, ok := fs.files[name]
	if !ok {
		fs.eng.Defer(func() { cb(ErrNotFound) })
		return
	}
	delete(fs.files, name)
	fs.free = append(fs.free, f.extents...)
	fs.coalesce()
	fs.journal(cb)
}

// List returns the file names, sorted.
func (fs *FS) List() []string {
	out := make([]string, 0, len(fs.files))
	for n := range fs.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (fs *FS) coalesce() {
	if len(fs.free) < 2 {
		return
	}
	sort.Slice(fs.free, func(i, j int) bool { return fs.free[i].off < fs.free[j].off })
	out := fs.free[:1]
	for _, e := range fs.free[1:] {
		last := &out[len(out)-1]
		if last.off+last.len == e.off {
			last.len += e.len
		} else {
			out = append(out, e)
		}
	}
	fs.free = out
}

// allocate finds space for n bytes: first-fit from the free list, else bump.
func (fs *FS) allocate(n int64) (extent, error) {
	for i, e := range fs.free {
		if e.len >= n {
			got := extent{off: e.off, len: n}
			if e.len == n {
				fs.free = append(fs.free[:i], fs.free[i+1:]...)
			} else {
				fs.free[i] = extent{off: e.off + n, len: e.len - n}
			}
			return got, nil
		}
	}
	if fs.next+n > fs.dev.Size() {
		return extent{}, ErrNoSpace
	}
	got := extent{off: fs.next, len: n}
	fs.next += n
	return got, nil
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the file length in bytes.
func (f *File) Size() int64 { return f.size }

// Append writes data at the end of the file: allocate an extent, write the
// payload, journal the metadata.
func (f *File) Append(data parity.Buffer, cb func(error)) {
	n := int64(data.Len())
	if n == 0 {
		f.fs.eng.Defer(func() { cb(nil) })
		return
	}
	ext, err := f.fs.allocate(n)
	if err != nil {
		f.fs.eng.Defer(func() { cb(err) })
		return
	}
	f.fs.dev.Write(ext.off, data, func(err error) {
		if err != nil {
			f.fs.free = append(f.fs.free, ext)
			cb(err)
			return
		}
		f.extents = append(f.extents, ext)
		f.size += n
		f.fs.journal(cb)
	})
}

// ReadAt reads n bytes at file offset off, spanning extents as needed.
func (f *File) ReadAt(off, n int64, cb func(parity.Buffer, error)) {
	if err := blockdev.CheckRange(off, n, f.size); err != nil {
		f.fs.eng.Defer(func() { cb(parity.Buffer{}, err) })
		return
	}
	if n == 0 {
		f.fs.eng.Defer(func() { cb(parity.Alloc(0), nil) })
		return
	}
	type span struct {
		devOff, len, outOff int64
	}
	var spans []span
	pos := int64(0)
	for _, e := range f.extents {
		if off+n <= pos {
			break
		}
		if pos+e.len <= off {
			pos += e.len
			continue
		}
		lo := max(off, pos)
		hi := min(off+n, pos+e.len)
		spans = append(spans, span{devOff: e.off + (lo - pos), len: hi - lo, outOff: lo - off})
		pos += e.len
	}
	out := parity.Alloc(int(n))
	elided := false
	pending := len(spans)
	var firstErr error
	for _, sp := range spans {
		sp := sp
		f.fs.dev.Read(sp.devOff, sp.len, func(b parity.Buffer, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if b.Elided() {
				elided = true
			} else if err == nil {
				out.CopyAt(int(sp.outOff), b)
			}
			b.Release()
			pending--
			if pending == 0 {
				switch {
				case firstErr != nil:
					cb(parity.Buffer{}, firstErr)
				case elided:
					cb(parity.Sized(int(n)), nil)
				default:
					cb(out, nil)
				}
			}
		})
	}
}
