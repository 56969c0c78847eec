package realtime

import (
	"sync"

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
//
// Each op travels in a pooled op record whose completion is bound once, so
// issuing one allocates nothing.
type Drive struct {
	*backend.Medium
	rt   backend.Runtime
	bufs *parity.Pool // read buffers

	mu   sync.Mutex // guards free: ops may be issued from outside the loop
	free []*driveOp
}

// opKind names what a driveOp does when it completes.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opTrim
)

// driveOp is one drive operation on its way to completion.
type driveOp struct {
	d      *Drive
	kind   opKind
	off, n int64
	b      parity.Buffer // a write's borrowed payload
	err    error         // a range error, delivered as is
	readCB func(parity.Buffer, error)
	doneCB func(error)
	runFn  func()
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

func (d *Drive) newOp(kind opKind, off, n int64) *driveOp {
	d.mu.Lock()
	var op *driveOp
	if k := len(d.free); k > 0 {
		op = d.free[k-1]
		d.free = d.free[:k-1]
	}
	d.mu.Unlock()
	if op == nil {
		op = &driveOp{d: d}
		op.runFn = op.run
	}
	op.kind, op.off, op.n = kind, off, n
	return op
}

func (d *Drive) freeOp(op *driveOp) {
	*op = driveOp{d: d, runFn: op.runFn}
	d.mu.Lock()
	d.free = append(d.free, op)
	d.mu.Unlock()
}

// submit runs op's completion on the owning loop: at once for a range
// error, else delayed when a slow profile is installed. As on the simulated
// SSD, an op submitted to a failed drive never completes — the caller's op
// deadline is the detection mechanism — and so takes no foreground token.
func (d *Drive) submit(op *driveOp) {
	if op.err != nil {
		d.rt.Defer(op.runFn)
		return
	}
	slow, ok := d.Admit()
	if !ok {
		d.freeOp(op)
		return
	}
	if delay := slow.Delay(); delay > 0 {
		d.rt.After(delay, op.runFn)
		return
	}
	d.rt.Defer(op.runFn)
}

// run completes op. The record is freed before the callback, which may well
// issue the next op.
func (op *driveOp) run() {
	d, kind, off, n, b, err, readCB, doneCB := op.d, op.kind, op.off, op.n, op.b, op.err, op.readCB, op.doneCB
	d.freeOp(op)
	switch {
	case err != nil && readCB != nil:
		readCB(parity.Buffer{}, err)
	case err != nil:
		doneCB(err)
	case kind == opRead:
		if b, ok, err := d.Medium.Read(off, n, d.bufs); ok {
			readCB(b, err)
		}
	case kind == opWrite:
		if ok, err := d.Medium.Write(off, b); ok {
			doneCB(err)
		}
	default:
		if ok, err := d.Medium.Trim(off, n); ok {
			doneCB(err)
		}
	}
}

// Read implements backend.Drive.
func (d *Drive) Read(off, n int64, cb func(parity.Buffer, error)) {
	op := d.newOp(opRead, off, n)
	op.readCB, op.err = cb, d.Check(off, n)
	d.submit(op)
}

// Write implements backend.Drive. The payload is borrowed until cb: its bytes
// are copied into the store at completion, with no intermediate snapshot.
func (d *Drive) Write(off int64, b parity.Buffer, cb func(error)) {
	op := d.newOp(opWrite, off, int64(b.Len()))
	op.b, op.doneCB, op.err = b, cb, d.Check(off, int64(b.Len()))
	d.submit(op)
}

// Trim implements backend.Drive.
func (d *Drive) Trim(off, n int64, cb func(error)) {
	op := d.newOp(opTrim, off, n)
	op.doneCB, op.err = cb, d.Check(off, n)
	d.submit(op)
}

var (
	_ backend.Drive            = (*Drive)(nil)
	_ backend.BufferAccounting = (*Drive)(nil)
)
