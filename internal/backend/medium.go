package backend

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"

	"draid/internal/integrity"
	"draid/internal/parity"
	"draid/internal/sim"
)

// ErrOutOfRange reports an access beyond a device's capacity — a drive's or
// a virtual array's; every layer wraps this one sentinel.
var ErrOutOfRange = errors.New("access beyond capacity")

// Medium is what a drive holds and how it fails, shared by every backend's
// Drive: the capacity and range check, the bytes (a sparse page store, a
// file, or none in size-only mode), the fail state and counters, the
// media-error and bit-rot maps, latent-error development and the installed
// grey-failure profile. A drive adds only time — when an op issued now
// completes — and calls Admit at issue and Read/Write/Trim at completion.
//
// A Medium is safe for concurrent use: realtime injection arrives from
// goroutines other than the drive's loop. An op takes its lock once, at
// completion; Admit reads two atomic flags and locks only under a slow
// profile. Drives embed it, which is how its fault surface becomes theirs.
type Medium struct {
	capacity int64
	store    store // nil ⇒ size-only: reads return elided payloads
	now      func() sim.Time

	failed atomic.Bool
	slowed atomic.Bool // a slow profile is installed

	mu    sync.Mutex
	stats DriveStats
	// media holds the unreadable byte ranges (injected UREs and latent
	// errors). rot holds ranges whose stored bytes were silently flipped; it
	// only feeds the CorruptReads counter — the damage itself is in the
	// store. A successful write or trim clears both over its range: flash
	// remaps bad sectors on program.
	media, rot integrity.RangeSet
	// latentRate is the per-read probability of developing a new URE; it
	// draws from its own seeded source so enabling it on one drive does not
	// perturb the engine RNG stream shared by everything else.
	latentRate float64
	latentRng  *rand.Rand
	// slow is the grey-failure profile (SlowNone when healthy), installed at
	// slowSince; its jitter draws from slowRng, seeded like latentRng.
	slow      SlowProfile
	slowSince sim.Time
	slowRng   *rand.Rand
}

// NewMedium returns a medium of the given capacity that keeps its bytes in a
// sparse page store — or, with storeData false, keeps none (size-only mode).
// now is the owning drive's clock; it dates slow-profile installation.
func NewMedium(now func() sim.Time, capacity int64, storeData bool) *Medium {
	m := &Medium{capacity: capacity, now: now}
	if storeData {
		m.store = pages{}
	}
	return m
}

// NewFileMedium returns a medium that keeps its bytes in a sparse file at
// path, created or truncated.
func NewFileMedium(now func() sim.Time, path string, capacity int64) (*Medium, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	return &Medium{capacity: capacity, store: file{f}, now: now}, nil
}

// Close closes the backing file, if there is one. The drive must be idle.
func (m *Medium) Close() error {
	if f, ok := m.store.(file); ok {
		return f.Close()
	}
	return nil
}

// Capacity returns the medium size in bytes.
func (m *Medium) Capacity() int64 { return m.capacity }

// StoresData reports whether payload bytes are materialized.
func (m *Medium) StoresData() bool { return m.store != nil }

// Check validates [off, off+n) against the capacity. Ranges arrive in
// capsules, so it must not overflow on any pair.
func (m *Medium) Check(off, n int64) error {
	if off < 0 || n < 0 || n > m.capacity-off {
		return ErrOutOfRange
	}
	return nil
}

// Stats returns the operation counters.
func (m *Medium) Stats() DriveStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Fail puts the drive into the failed state: ops in flight and ops issued
// later never complete.
func (m *Medium) Fail() { m.failed.Store(true) }

// Recover returns the drive to service with its bytes retained.
func (m *Medium) Recover() { m.failed.Store(false) }

// Failed reports the failure state.
func (m *Medium) Failed() bool { return m.failed.Load() }

// Slowdown is one op's share of the installed grey-failure profile.
type Slowdown struct {
	Factor float64      // latency multiplier (1 when healthy)
	Stall  sim.Duration // extra completion delay (SlowStall)
	Base   sim.Duration // the profile's SlowProfile.BaseLatency
}

// Delay is the completion delay a drive without a timing model of its own
// adds: (Factor-1)×Base, plus Stall.
func (s Slowdown) Delay() sim.Duration {
	return sim.Duration(float64(s.Base)*(s.Factor-1)) + s.Stall
}

// Admit is the issue half of an op: false on a failed drive (the op must
// never complete), otherwise the op's Slowdown. A jittered profile draws its
// private source here, once per op.
func (m *Medium) Admit() (Slowdown, bool) {
	if m.failed.Load() {
		return Slowdown{}, false
	}
	s := Slowdown{Factor: 1}
	if !m.slowed.Load() {
		return s, true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.slow.Kind != SlowNone {
		now := m.now()
		s.Factor = m.slow.FactorAt(now, m.slowSince, m.slowRng)
		s.Stall = m.slow.StallDelay(now, m.slowSince)
		s.Base = m.slow.BaseLatency()
	}
	return s, true
}

// Read is the completion of a read of [off, off+n): it counts the op, rolls
// the latent-error dice, fails on a media-error overlap with a *MediaError
// naming it, counts a read over rot and copies the bytes out into a buffer
// from bufs (a nil pool allocates). ok is false on a failed drive: the op
// never completes, and the caller must not call back.
func (m *Medium) Read(off, n int64, bufs *parity.Pool) (b parity.Buffer, ok bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed.Load() {
		return parity.Buffer{}, false, nil
	}
	m.stats.ReadOps++
	m.stats.ReadBytes += n
	m.developLatent(off, n)
	if bad, hit := m.media.Intersect(off, n); hit {
		m.stats.MediaErrors++
		return parity.Buffer{}, true, &MediaError{Off: bad.Off, N: bad.Len}
	}
	if _, hit := m.rot.Intersect(off, n); hit {
		m.stats.CorruptReads++
	}
	if m.store == nil {
		return parity.Sized(int(n)), true, nil
	}
	b = bufs.GetUncleared(int(n)) // load writes every byte
	if err := m.store.load(b.Data(), off); err != nil {
		b.Release()
		return parity.Buffer{}, true, err
	}
	return b, true, nil
}

// Write is the completion of a write of b at off: it counts the op, stores
// the bytes — none for an elided payload, which carries none — and clears
// media-error and rot state over the range. ok is as for Read.
func (m *Medium) Write(off int64, b parity.Buffer) (ok bool, err error) {
	n := int64(b.Len())
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed.Load() {
		return false, nil
	}
	m.stats.WriteOps++
	m.stats.WriteBytes += n
	if m.store != nil && !b.Elided() {
		if err := m.store.save(off, b.Data()); err != nil {
			return true, err
		}
	}
	m.media.Remove(off, n)
	m.rot.Remove(off, n)
	return true, nil
}

// Trim is the completion of a trim of [off, off+n): the range reads as
// zeros from now on, and its media-error and rot state clears. ok is as for
// Read.
func (m *Medium) Trim(off, n int64) (ok bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed.Load() {
		return false, nil
	}
	m.stats.TrimOps++
	if m.store != nil {
		if err := m.store.discard(off, n); err != nil {
			return true, err
		}
	}
	m.media.Remove(off, n)
	m.rot.Remove(off, n)
	return true, nil
}

// PeekSync reads stored bytes immediately, bypassing timing and queues — for
// integrity checksums and test assertions only. Nil when the medium stores no
// data.
func (m *Medium) PeekSync(off, n int64) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store == nil {
		return nil
	}
	out := make([]byte, n)
	if m.store.load(out, off) != nil {
		return nil
	}
	return out
}

// InjectMediaError marks [off, off+n) unreadable: reads overlapping the range
// complete with a *MediaError naming the overlap, until a write or trim over
// it (sector remap on program).
func (m *Medium) InjectMediaError(off, n int64) {
	m.mu.Lock()
	m.media.Add(off, n)
	m.mu.Unlock()
}

// InjectBitRot silently flips the stored bytes of [off, off+n): reads succeed
// and return the damaged payload. It panics on a size-only medium — rot with
// no bytes to rot is meaningless.
func (m *Medium) InjectBitRot(off, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store == nil {
		panic("backend: InjectBitRot requires stored data")
	}
	data := make([]byte, n)
	if m.store.load(data, off) != nil {
		return
	}
	for i := range data {
		data[i] ^= 0x5A
	}
	if m.store.save(off, data) == nil {
		m.rot.Add(off, n)
	}
}

// SetLatentErrorRate enables spontaneous URE development: each read op grows,
// with probability rate, a new latentSector-aligned media-error range inside
// the range it reads (and then fails on it). The draw uses a private source
// seeded here.
func (m *Medium) SetLatentErrorRate(rate float64, seed int64) {
	m.mu.Lock()
	m.latentRate = rate
	m.latentRng = rand.New(rand.NewSource(seed))
	m.mu.Unlock()
}

// MediaErrorRanges returns the currently unreadable ranges.
func (m *Medium) MediaErrorRanges() []integrity.Span {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.media.Spans()
}

// SetSlowProfile installs (or, with Kind SlowNone, clears) a grey-failure
// profile, dated now; seed feeds the profile's private jitter source.
func (m *Medium) SetSlowProfile(p SlowProfile, seed int64) {
	m.mu.Lock()
	m.slow = p
	m.slowSince = m.now()
	m.slowRng = rand.New(rand.NewSource(seed))
	m.slowed.Store(p.Kind != SlowNone)
	m.mu.Unlock()
}

// SlowProfileInstalled returns the active profile.
func (m *Medium) SlowProfileInstalled() SlowProfile {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.slow
}

const latentSector = 4096 // granularity of a spontaneously developed URE

// developLatent rolls the latent-error dice for a read of [off, off+n).
func (m *Medium) developLatent(off, n int64) {
	if m.latentRate <= 0 || m.latentRng == nil || n <= 0 {
		return
	}
	if m.latentRng.Float64() >= m.latentRate {
		return
	}
	pos := off + m.latentRng.Int63n(n)
	pos -= pos % latentSector
	end := min(pos+latentSector, m.capacity)
	pos = max(pos, off)
	m.media.Add(pos, end-pos)
}

// store is where a medium keeps its bytes. load writes every byte of out,
// whatever it held before — a recycled drive-read buffer is not zeroed first
// — so never-written bytes come back as the zeros they read as.
type store interface {
	load(out []byte, off int64) error
	save(off int64, data []byte) error
	discard(off, n int64) error
}

const pageSize = 64 << 10 // page-store granularity

// pages is the sparse in-memory store: a page exists once written to.
type pages map[int64][]byte

// walk visits [off, off+n) one page piece at a time: the page number, the
// offset in the page, the position in the range and the piece's length.
func walk(off, n int64, fn func(no, at, pos, span int64)) {
	for pos := int64(0); pos < n; {
		no, at := (off+pos)/pageSize, (off+pos)%pageSize
		span := min(pageSize-at, n-pos)
		fn(no, at, pos, span)
		pos += span
	}
}

func (p pages) load(out []byte, off int64) error {
	walk(off, int64(len(out)), func(no, at, pos, span int64) {
		if page, ok := p[no]; ok {
			copy(out[pos:pos+span], page[at:at+span])
		} else {
			clear(out[pos : pos+span])
		}
	})
	return nil
}

func (p pages) save(off int64, data []byte) error {
	walk(off, int64(len(data)), func(no, at, pos, span int64) {
		page, ok := p[no]
		if !ok {
			page = make([]byte, pageSize)
			p[no] = page
		}
		copy(page[at:at+span], data[pos:pos+span])
	})
	return nil
}

// discard zeroes the range, dropping whole pages.
func (p pages) discard(off, n int64) error {
	walk(off, n, func(no, at, _, span int64) {
		if page, ok := p[no]; ok {
			if span == pageSize {
				delete(p, no)
			} else {
				clear(page[at : at+span])
			}
		}
	})
	return nil
}

// file is the sparse-file store: pread/pwrite, with reads past the end of
// the file reading as zeros.
type file struct{ *os.File }

func (f file) load(out []byte, off int64) error {
	n, err := f.ReadAt(out, off)
	if err == io.EOF {
		clear(out[n:])
		return nil
	}
	return err
}

func (f file) save(off int64, data []byte) error {
	_, err := f.WriteAt(data, off)
	return err
}

// discard writes zeros (portable hole emulation).
func (f file) discard(off, n int64) error { return f.save(off, make([]byte, n)) }
