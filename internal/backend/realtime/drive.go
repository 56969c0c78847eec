package realtime

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"sync"

	"draid/internal/backend"
	"draid/internal/integrity"
	"draid/internal/parity"
	"draid/internal/sim"
)

// ErrOutOfRange reports access beyond a drive's capacity.
var ErrOutOfRange = errors.New("realtime: access beyond drive capacity")

const (
	memPageSize  = 64 << 10
	latentSector = 4096
)

// MemDrive is a memory-backed drive for the realtime backend: a sparse page
// store with the same fault-injection surface as the simulated SSD (media
// errors, bit rot, latent URE development). Completions are delivered on the
// owning node's loop via the runtime; state is mutex-guarded because
// injection calls arrive from other goroutines.
//
// Bytes cross the media boundary exactly once each way: a Write copies from
// the borrowed payload into the pages when it completes, and a Read copies
// the pages into a buffer from the drive's free list, which the buffer's
// last owner — wherever the capsule carrying it ends up — releases back.
type MemDrive struct {
	rt       backend.Runtime
	capacity int64
	bufs     *parity.Pool // read buffers

	mu         sync.Mutex
	pages      map[int64][]byte // nil ⇒ SizeOnly (elided payloads)
	failed     bool
	media      integrity.RangeSet
	rot        integrity.RangeSet
	latentRate float64
	latentRng  *rand.Rand
	stats      backend.DriveStats

	// Grey-failure latency profile. MemDrive has no timing model, so
	// constant/fading profiles inflate SlowProfile.BaseLatency() per op;
	// stall profiles hold completions until the stall window ends. Delays
	// are scheduled on the owning loop via rt.After.
	slow      backend.SlowProfile
	slowSince sim.Time
	slowRng   *rand.Rand
}

// NewMemDrive builds a drive of the given capacity. With storeData false the
// drive tracks only sizes and returns elided payloads.
func NewMemDrive(rt backend.Runtime, capacity int64, storeData bool) *MemDrive {
	d := &MemDrive{rt: rt, capacity: capacity, bufs: parity.NewPool()}
	if storeData {
		d.pages = make(map[int64][]byte)
	}
	return d
}

func (d *MemDrive) Capacity() int64  { return d.capacity }
func (d *MemDrive) StoresData() bool { return d.pages != nil }

func (d *MemDrive) Stats() backend.DriveStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// BufferStats implements backend.BufferAccounting for the read free list.
func (d *MemDrive) BufferStats() parity.PoolStats { return d.bufs.Stats() }

func (d *MemDrive) Fail() {
	d.mu.Lock()
	d.failed = true
	d.mu.Unlock()
}

func (d *MemDrive) Recover() {
	d.mu.Lock()
	d.failed = false
	d.mu.Unlock()
}

func (d *MemDrive) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// SetSlowProfile implements backend.SlowInjector.
func (d *MemDrive) SetSlowProfile(p backend.SlowProfile, seed int64) {
	d.mu.Lock()
	d.slow = p
	d.slowSince = d.rt.Now()
	d.slowRng = rand.New(rand.NewSource(seed))
	d.mu.Unlock()
}

// SlowProfileInstalled implements backend.SlowInjector.
func (d *MemDrive) SlowProfileInstalled() backend.SlowProfile {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.slow
}

// slowDelay returns the grey-failure completion delay for an op issued now.
func (d *MemDrive) slowDelay() sim.Duration {
	d.mu.Lock()
	p, since, rng := d.slow, d.slowSince, d.slowRng
	d.mu.Unlock()
	if p.Kind == backend.SlowNone {
		return 0
	}
	now := d.rt.Now()
	var extra sim.Duration
	if f := p.FactorAt(now, since, rng); f > 1 {
		extra += sim.Duration(float64(p.BaseLatency()) * (f - 1))
	}
	extra += p.StallDelay(now, since)
	return extra
}

// complete schedules an op completion on the owning loop, delayed when a
// slow profile is installed.
func (d *MemDrive) complete(fn func()) {
	if extra := d.slowDelay(); extra > 0 {
		d.rt.After(extra, fn)
		return
	}
	d.rt.Defer(fn)
}

// Read implements backend.Drive. As on the simulated SSD, operations
// submitted to a failed drive never complete — the caller's op deadline is
// the detection mechanism.
func (d *MemDrive) Read(off, n int64, cb func(parity.Buffer, error)) {
	if off < 0 || n < 0 || off+n > d.capacity {
		d.rt.Defer(func() { cb(parity.Buffer{}, ErrOutOfRange) })
		return
	}
	if d.Failed() {
		return
	}
	d.complete(func() {
		d.mu.Lock()
		if d.failed {
			d.mu.Unlock()
			return
		}
		d.stats.ReadOps++
		d.stats.ReadBytes += n
		d.maybeDevelopLatentLocked(off, n)
		if bad, hit := d.media.Intersect(off, n); hit {
			d.stats.MediaErrors++
			d.mu.Unlock()
			cb(parity.Buffer{}, &backend.MediaError{Off: bad.Off, N: bad.Len})
			return
		}
		if _, hit := d.rot.Intersect(off, n); hit {
			d.stats.CorruptReads++
		}
		b := parity.Sized(int(n))
		if d.pages != nil {
			b = d.bufs.Get(int(n))
			d.loadLocked(b.Data(), off)
		}
		d.mu.Unlock()
		cb(b, nil)
	})
}

// Write implements backend.Drive. The payload is borrowed until cb: its bytes
// are copied into the pages at completion, with no intermediate snapshot.
func (d *MemDrive) Write(off int64, b parity.Buffer, cb func(error)) {
	n := int64(b.Len())
	if off < 0 || off+n > d.capacity {
		d.rt.Defer(func() { cb(ErrOutOfRange) })
		return
	}
	if d.Failed() {
		return
	}
	d.complete(func() {
		d.mu.Lock()
		if d.failed {
			d.mu.Unlock()
			return
		}
		d.stats.WriteOps++
		d.stats.WriteBytes += n
		if d.pages != nil && !b.Elided() {
			d.storeLocked(off, b.Data())
		}
		d.media.Remove(off, n)
		d.rot.Remove(off, n)
		d.mu.Unlock()
		cb(nil)
	})
}

// Trim implements backend.Drive: discards the range and clears fault state
// over it.
func (d *MemDrive) Trim(off, n int64, cb func(error)) {
	if off < 0 || n < 0 || off+n > d.capacity {
		d.rt.Defer(func() { cb(ErrOutOfRange) })
		return
	}
	if d.Failed() {
		return
	}
	d.complete(func() {
		d.mu.Lock()
		if d.failed {
			d.mu.Unlock()
			return
		}
		d.stats.TrimOps++
		d.discardLocked(off, n)
		d.media.Remove(off, n)
		d.rot.Remove(off, n)
		d.mu.Unlock()
		cb(nil)
	})
}

// PeekSync reads stored bytes immediately, bypassing the loop — for test
// assertions only.
func (d *MemDrive) PeekSync(off, n int64) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pages == nil {
		return nil
	}
	out := make([]byte, n)
	d.loadLocked(out, off)
	return out
}

// InjectMediaError implements backend.MediaInjector.
func (d *MemDrive) InjectMediaError(off, n int64) {
	d.mu.Lock()
	d.media.Add(off, n)
	d.mu.Unlock()
}

// InjectBitRot implements backend.MediaInjector. It requires stored data.
func (d *MemDrive) InjectBitRot(off, n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pages == nil {
		panic("realtime: InjectBitRot requires stored data")
	}
	data := make([]byte, n)
	d.loadLocked(data, off)
	for i := range data {
		data[i] ^= 0x5A
	}
	d.storeLocked(off, data)
	d.rot.Add(off, n)
}

// SetLatentErrorRate implements backend.MediaInjector.
func (d *MemDrive) SetLatentErrorRate(rate float64, seed int64) {
	d.mu.Lock()
	d.latentRate = rate
	d.latentRng = rand.New(rand.NewSource(seed))
	d.mu.Unlock()
}

// MediaErrorRanges implements backend.MediaInjector.
func (d *MemDrive) MediaErrorRanges() []integrity.Span {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.media.Spans()
}

func (d *MemDrive) maybeDevelopLatentLocked(off, n int64) {
	if d.latentRate <= 0 || d.latentRng == nil || n <= 0 {
		return
	}
	if d.latentRng.Float64() >= d.latentRate {
		return
	}
	pos := off + d.latentRng.Int63n(n)
	pos -= pos % latentSector
	end := pos + latentSector
	if end > d.capacity {
		end = d.capacity
	}
	if pos < off {
		pos = off
	}
	d.media.Add(pos, end-pos)
}

// loadLocked fills out (zeroed by the caller) with the stored bytes at off;
// never-written pages are left as the zeros they read as.
func (d *MemDrive) loadLocked(out []byte, off int64) {
	n := int64(len(out))
	for pos := int64(0); pos < n; {
		pageNo := (off + pos) / memPageSize
		pageOff := (off + pos) % memPageSize
		span := memPageSize - pageOff
		if span > n-pos {
			span = n - pos
		}
		if page, ok := d.pages[pageNo]; ok {
			copy(out[pos:pos+span], page[pageOff:pageOff+span])
		}
		pos += span
	}
}

func (d *MemDrive) storeLocked(off int64, data []byte) {
	n := int64(len(data))
	for pos := int64(0); pos < n; {
		pageNo := (off + pos) / memPageSize
		pageOff := (off + pos) % memPageSize
		span := memPageSize - pageOff
		if span > n-pos {
			span = n - pos
		}
		page, ok := d.pages[pageNo]
		if !ok {
			page = make([]byte, memPageSize)
			d.pages[pageNo] = page
		}
		copy(page[pageOff:pageOff+span], data[pos:pos+span])
		pos += span
	}
}

func (d *MemDrive) discardLocked(off, n int64) {
	if d.pages == nil {
		return
	}
	for pos := int64(0); pos < n; {
		pageNo := (off + pos) / memPageSize
		pageOff := (off + pos) % memPageSize
		span := memPageSize - pageOff
		if span > n-pos {
			span = n - pos
		}
		if page, ok := d.pages[pageNo]; ok {
			if span == memPageSize {
				delete(d.pages, pageNo)
			} else {
				clearTo := page[pageOff : pageOff+span]
				for i := range clearTo {
					clearTo[i] = 0
				}
			}
		}
		pos += span
	}
}

// FileDrive is a file-backed drive: reads and writes go to a sparse file via
// pread/pwrite. It deliberately implements only backend.Drive — not
// backend.MediaInjector — making it the backend on which injection APIs
// surface backend.ErrUnsupported.
type FileDrive struct {
	rt       backend.Runtime
	f        *os.File
	path     string
	capacity int64
	bufs     *parity.Pool // read buffers, released by their last owner

	mu     sync.Mutex
	failed bool
	stats  backend.DriveStats
}

// NewFileDrive creates (truncating) the backing file.
func NewFileDrive(rt backend.Runtime, path string, capacity int64) (*FileDrive, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	return &FileDrive{rt: rt, f: f, path: path, capacity: capacity, bufs: parity.NewPool()}, nil
}

// Path returns the backing file's path.
func (d *FileDrive) Path() string { return d.path }

// Close closes the backing file (the drive must be idle).
func (d *FileDrive) Close() error { return d.f.Close() }

func (d *FileDrive) Capacity() int64  { return d.capacity }
func (d *FileDrive) StoresData() bool { return true }

func (d *FileDrive) Stats() backend.DriveStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// BufferStats implements backend.BufferAccounting for the read free list.
func (d *FileDrive) BufferStats() parity.PoolStats { return d.bufs.Stats() }

func (d *FileDrive) Fail() {
	d.mu.Lock()
	d.failed = true
	d.mu.Unlock()
}

func (d *FileDrive) Recover() {
	d.mu.Lock()
	d.failed = false
	d.mu.Unlock()
}

func (d *FileDrive) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// readAt fills out from the file, zero-filling past EOF (sparse semantics).
func (d *FileDrive) readAt(out []byte, off int64) error {
	n, err := d.f.ReadAt(out, off)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		for i := n; i < len(out); i++ {
			out[i] = 0
		}
		return nil
	}
	return err
}

// Read implements backend.Drive.
func (d *FileDrive) Read(off, n int64, cb func(parity.Buffer, error)) {
	if off < 0 || n < 0 || off+n > d.capacity {
		d.rt.Defer(func() { cb(parity.Buffer{}, ErrOutOfRange) })
		return
	}
	if d.Failed() {
		return
	}
	d.rt.Defer(func() {
		d.mu.Lock()
		if d.failed {
			d.mu.Unlock()
			return
		}
		d.stats.ReadOps++
		d.stats.ReadBytes += n
		d.mu.Unlock()
		b := d.bufs.Get(int(n))
		if err := d.readAt(b.Data(), off); err != nil {
			b.Release()
			cb(parity.Buffer{}, err)
			return
		}
		cb(b, nil)
	})
}

// Write implements backend.Drive, borrowing the payload until cb: pwrite
// takes its bytes at completion. An elided payload stores zeros — a
// file-backed drive cannot represent sizes without bytes.
func (d *FileDrive) Write(off int64, b parity.Buffer, cb func(error)) {
	n := int64(b.Len())
	if off < 0 || off+n > d.capacity {
		d.rt.Defer(func() { cb(ErrOutOfRange) })
		return
	}
	if d.Failed() {
		return
	}
	d.rt.Defer(func() {
		d.mu.Lock()
		if d.failed {
			d.mu.Unlock()
			return
		}
		d.stats.WriteOps++
		d.stats.WriteBytes += n
		d.mu.Unlock()
		data := b.Data()
		if b.Elided() {
			data = make([]byte, n)
		}
		if _, err := d.f.WriteAt(data, off); err != nil {
			cb(err)
			return
		}
		cb(nil)
	})
}

// Trim implements backend.Drive by writing zeros (portable hole emulation).
func (d *FileDrive) Trim(off, n int64, cb func(error)) {
	if off < 0 || n < 0 || off+n > d.capacity {
		d.rt.Defer(func() { cb(ErrOutOfRange) })
		return
	}
	if d.Failed() {
		return
	}
	d.rt.Defer(func() {
		d.mu.Lock()
		if d.failed {
			d.mu.Unlock()
			return
		}
		d.stats.TrimOps++
		d.mu.Unlock()
		if _, err := d.f.WriteAt(make([]byte, n), off); err != nil {
			cb(err)
			return
		}
		cb(nil)
	})
}

// PeekSync reads stored bytes immediately — for test assertions only.
func (d *FileDrive) PeekSync(off, n int64) []byte {
	out := make([]byte, n)
	if err := d.readAt(out, off); err != nil {
		return nil
	}
	return out
}

var (
	_ backend.Drive            = (*MemDrive)(nil)
	_ backend.MediaInjector    = (*MemDrive)(nil)
	_ backend.SlowInjector     = (*MemDrive)(nil)
	_ backend.BufferAccounting = (*MemDrive)(nil)
	_ backend.Drive            = (*FileDrive)(nil)
	_ backend.BufferAccounting = (*FileDrive)(nil)
)
