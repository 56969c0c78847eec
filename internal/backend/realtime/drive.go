package realtime

import (
	"draid/internal/backend"
	"draid/internal/parity"
)

// Drive is the realtime backend's drive: a backend.Medium — bytes in a
// sparse page store or a file, and the whole fault model — whose operations
// complete on the owning node's loop. It has no timing model of its own: an
// op completes on a later turn of the loop, or, under a grey-failure profile,
// after the profile's synthetic delay (backend.Slowdown.Delay). Medium state
// is mutex-guarded because injection calls arrive from other goroutines.
//
// Bytes cross the media boundary exactly once each way: a Write copies from
// the borrowed payload into the store when it completes, and a Read copies
// the store into a buffer from the drive's free list, which the buffer's
// last owner — wherever the capsule carrying it ends up — releases back.
type Drive struct {
	*backend.Medium
	rt   backend.Runtime
	bufs *parity.Pool // read buffers
}

// NewMemDrive builds a memory-backed drive of the given capacity. With
// storeData false the drive tracks only sizes and returns elided payloads.
func NewMemDrive(rt backend.Runtime, capacity int64, storeData bool) *Drive {
	return &Drive{Medium: backend.NewMedium(rt.Now, capacity, storeData), rt: rt, bufs: parity.NewPool()}
}

// NewFileDrive builds a drive whose bytes live in a sparse file at path,
// created or truncated. Close it when done.
func NewFileDrive(rt backend.Runtime, path string, capacity int64) (*Drive, error) {
	m, err := backend.NewFileMedium(rt.Now, path, capacity)
	if err != nil {
		return nil, err
	}
	return &Drive{Medium: m, rt: rt, bufs: parity.NewPool()}, nil
}

// BufferStats implements backend.BufferAccounting for the read free list.
func (d *Drive) BufferStats() parity.PoolStats { return d.bufs.Stats() }

// complete runs an op's completion on the owning loop, delayed when a slow
// profile is installed. As on the simulated SSD, an op submitted to a failed
// drive never completes — the caller's op deadline is the detection
// mechanism — and so takes no foreground token.
func (d *Drive) complete(fn func()) {
	slow, ok := d.Admit()
	if !ok {
		return
	}
	if delay := slow.Delay(); delay > 0 {
		d.rt.After(delay, fn)
		return
	}
	d.rt.Defer(fn)
}

// Read implements backend.Drive.
func (d *Drive) Read(off, n int64, cb func(parity.Buffer, error)) {
	if err := d.Check(off, n); err != nil {
		d.rt.Defer(func() { cb(parity.Buffer{}, err) })
		return
	}
	d.complete(func() {
		if b, ok, err := d.Medium.Read(off, n, d.bufs); ok {
			cb(b, err)
		}
	})
}

// Write implements backend.Drive. The payload is borrowed until cb: its bytes
// are copied into the store at completion, with no intermediate snapshot.
func (d *Drive) Write(off int64, b parity.Buffer, cb func(error)) {
	if err := d.Check(off, int64(b.Len())); err != nil {
		d.rt.Defer(func() { cb(err) })
		return
	}
	d.complete(func() {
		if ok, err := d.Medium.Write(off, b); ok {
			cb(err)
		}
	})
}

// Trim implements backend.Drive.
func (d *Drive) Trim(off, n int64, cb func(error)) {
	if err := d.Check(off, n); err != nil {
		d.rt.Defer(func() { cb(err) })
		return
	}
	d.complete(func() {
		if ok, err := d.Medium.Trim(off, n); ok {
			cb(err)
		}
	})
}

var (
	_ backend.Drive            = (*Drive)(nil)
	_ backend.BufferAccounting = (*Drive)(nil)
)
