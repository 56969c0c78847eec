package parity

import "sync"

// poolLimit caps the bytes one Pool parks on its free lists. A workload with
// many distinct buffer sizes would otherwise pin one list per size forever;
// past the cap Put lets the garbage collector have the storage.
const poolLimit = 8 << 20

// Pool is a deterministic free list of materialized buffers, keyed by size.
// Unlike sync.Pool, reuse does not depend on GC timing or scheduling, which
// keeps simulation results reproducible run to run and under `-parallel N`.
// Every owner has its own Pool — a server's reduce accumulators, a realtime
// drive's read buffers — and a buffer always returns to the Pool it came
// from. The mutex exists because that return may happen on another node's
// goroutine: a realtime drive-read buffer travels with its capsule and is
// released wherever its bytes are finally copied out.
//
// Ownership rule: a pooled buffer has one owner at a time, and only that
// owner may Release (Put) it, exactly once, after its last read. Buffers that
// stay with a holder who will never release them are Disowned first. Slices
// and clones of a pooled buffer do not belong to the Pool; putting them (or
// any foreign buffer) is a no-op.
//
// A nil *Pool is valid and degrades to plain allocation.
type Pool struct {
	mu    sync.Mutex
	free  map[int][][]byte
	held  int // bytes parked on the free lists
	stats PoolStats
}

// PoolStats counts a Pool's traffic. At quiescence Outstanding is the number
// of buffers still owned by somebody — zero unless an owner is legitimately
// holding one (an open reduction) or one leaked.
type PoolStats struct {
	Gets     int // buffers handed out
	Hits     int // … of which served from the free list
	Puts     int // buffers released back
	Disowned int // buffers handed off for good (Buffer.Disown)
}

// Outstanding returns the buffers handed out and neither released nor
// disowned.
func (s PoolStats) Outstanding() int { return s.Gets - s.Puts - s.Disowned }

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{free: make(map[int][][]byte)} }

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Get returns a zeroed materialized buffer of n bytes, reusing a recycled
// buffer of the same size when one is available.
func (p *Pool) Get(n int) Buffer { return p.get(n, true) }

// GetUncleared is Get without the zeroing: a recycled buffer keeps whatever
// its last owner left in it. It is for callers that overwrite every byte
// before anyone reads one (a socket read with io.ReadFull), and that Put a
// buffer they could not fill back unread.
func (p *Pool) GetUncleared(n int) Buffer { return p.get(n, false) }

func (p *Pool) get(n int, zero bool) Buffer {
	if p == nil {
		return Alloc(n)
	}
	p.mu.Lock()
	p.stats.Gets++
	var data []byte
	if list := p.free[n]; len(list) > 0 {
		data = list[len(list)-1]
		p.free[n] = list[:len(list)-1]
		p.held -= n
		p.stats.Hits++
	}
	p.mu.Unlock()
	if data == nil {
		data = make([]byte, n)
	} else if zero {
		clear(data)
	}
	return Buffer{size: n, data: data, home: p}
}

// Put releases b, one of this pool's own buffers, for a future Get of the
// same size. Anything else — elided, sliced, cloned or foreign buffers, or a
// nil pool — is a no-op. The caller must not use b after.
func (p *Pool) Put(b Buffer) {
	if p == nil || b.home != p {
		return
	}
	p.mu.Lock()
	p.stats.Puts++
	if b.size > 0 && p.held+b.size <= poolLimit {
		p.free[b.size] = append(p.free[b.size], b.data)
		p.held += b.size
	}
	p.mu.Unlock()
}

func (p *Pool) disown() {
	p.mu.Lock()
	p.stats.Disowned++
	p.mu.Unlock()
}
