// Package parity provides the data-plane payload abstraction and the parity
// kernels (XOR for RAID-5 P, GF(2^8) multiply-accumulate for RAID-6 Q) used
// by every RAID implementation in this repository.
//
// A Buffer carries either real bytes or only a size ("elided" mode). Unit and
// property tests always run with real bytes, so parity invariants are checked
// with real arithmetic; long bandwidth benchmarks may run elided to keep
// memory flat. Any operation mixing an elided operand yields an elided
// result of the correct size — timing and accounting are unaffected.
//
// Ownership: a materialized Buffer has exactly one owner at a time. Handing
// it to a transport Send, or receiving it from a drive Read, moves ownership;
// nobody but the owner may write to it, and the last owner calls Release once
// the bytes have been copied out (DESIGN.md, "Payload ownership").
package parity

import (
	"bytes"
	"fmt"

	"draid/internal/gf256"
)

// Buffer is a payload of known size whose bytes may be elided.
type Buffer struct {
	size int
	data []byte // nil ⇒ elided
	// home is the Pool the storage was drawn from; nil for plain allocations.
	// Only the whole buffer carries it: Slice and Clone results never do, so
	// a view or a copy can never recycle storage it does not own.
	home *Pool
}

// FromBytes wraps b (no copy) as a Buffer.
func FromBytes(b []byte) Buffer { return Buffer{size: len(b), data: b} }

// Alloc returns a zeroed materialized buffer of n bytes.
func Alloc(n int) Buffer { return Buffer{size: n, data: make([]byte, n)} }

// Sized returns an elided buffer of n bytes.
func Sized(n int) Buffer { return Buffer{size: n} }

// Len returns the payload size in bytes.
func (b Buffer) Len() int { return b.size }

// Elided reports whether the buffer carries no real bytes.
func (b Buffer) Elided() bool { return b.data == nil }

// Data returns the underlying bytes, or nil if elided.
func (b Buffer) Data() []byte { return b.data }

// Release ends the owner's use of b: pooled storage goes back to its Pool for
// reuse, anything else (plain allocations, slices, clones, elided buffers) is
// left to the garbage collector. The caller must not touch b afterwards.
func (b Buffer) Release() {
	if b.home != nil {
		b.home.Put(b)
	}
}

// Disown takes b out of its Pool's custody for good and returns the same
// bytes as a plain buffer: for an owner that keeps the storage indefinitely
// or hands it to code that will never Release it (a user callback). The
// garbage collector reclaims it; the Pool counts it as handed off, not lost.
func (b Buffer) Disown() Buffer {
	if b.home != nil {
		b.home.disown()
		b.home = nil
	}
	return b
}

// Clone returns an independent, unpooled copy (elided stays elided). The
// copy is allocated without a zeroing pass, since every byte is overwritten.
func (b Buffer) Clone() Buffer {
	if b.data == nil {
		return Buffer{size: b.size}
	}
	return Buffer{size: b.size, data: bytes.Clone(b.data)}
}

// Slice returns the sub-buffer [off, off+n). It panics on out-of-range
// arguments. The result aliases b's storage when materialized.
func (b Buffer) Slice(off, n int) Buffer {
	if off < 0 || n < 0 || off+n > b.size {
		panic(fmt.Sprintf("parity: slice [%d,%d) of %d-byte buffer", off, off+n, b.size))
	}
	if b.data == nil {
		return Buffer{size: n}
	}
	return Buffer{size: n, data: b.data[off : off+n]}
}

// CopyAt copies src into b starting at off. If either side is elided the
// destination range becomes undefined but the destination stays usable, so
// elided workloads can exercise the same code paths.
func (b Buffer) CopyAt(off int, src Buffer) {
	if off < 0 || off+src.size > b.size {
		panic(fmt.Sprintf("parity: copy of %d bytes at %d into %d-byte buffer", src.size, off, b.size))
	}
	if b.data == nil || src.data == nil {
		return
	}
	copy(b.data[off:off+src.size], src.data)
}

// Equal reports whether both buffers are materialized with identical bytes.
// Two elided buffers of the same size are also considered equal.
func (b Buffer) Equal(other Buffer) bool {
	if b.size != other.size {
		return false
	}
	if b.data == nil || other.data == nil {
		return b.data == nil && other.data == nil
	}
	return bytes.Equal(b.data, other.data)
}

// XORInto computes dst ^= src, in place on dst's storage. Sizes must match.
// If either side is elided, dst becomes elided. It returns the (possibly
// re-headered) destination; dst itself is consumed — its storage is the
// result's, or is released when the result is elided.
func XORInto(dst, src Buffer) Buffer {
	if dst.size != src.size {
		panic(fmt.Sprintf("parity: xor of %d and %d byte buffers", dst.size, src.size))
	}
	if dst.data == nil || src.data == nil {
		dst.Release()
		return Buffer{size: dst.size}
	}
	gf256.XORSlice(dst.data, src.data)
	return dst
}

// MulAddInto computes dst ^= c·src over GF(2^8), in place. Sizes must match;
// dst is consumed as by XORInto.
func MulAddInto(dst, src Buffer, c byte) Buffer {
	if dst.size != src.size {
		panic(fmt.Sprintf("parity: muladd of %d and %d byte buffers", dst.size, src.size))
	}
	if dst.data == nil || src.data == nil {
		dst.Release()
		return Buffer{size: dst.size}
	}
	gf256.MulAddSlice(dst.data, src.data, c)
	return dst
}

// MulInto computes dst = c·src over GF(2^8) into a fresh buffer shaped like
// src (elided if src is elided).
func MulInto(src Buffer, c byte) Buffer {
	if src.data == nil {
		return Buffer{size: src.size}
	}
	out := make([]byte, src.size)
	gf256.MulSlice(out, src.data, c)
	return Buffer{size: src.size, data: out}
}

// Scale computes b = c·b in place on b's storage (no-op when elided) and
// returns b. Use instead of MulInto when the source buffer is dead after the
// call — it saves the fresh allocation.
func Scale(b Buffer, c byte) Buffer {
	if b.data == nil {
		return b
	}
	gf256.MulSlice(b.data, b.data, c)
	return b
}

// QCoeff returns the RAID-6 Q coefficient g^i for data-chunk index i.
func QCoeff(i int) byte { return gf256.Exp(i) }

// ComputeP returns the RAID-5/6 P chunk: XOR of all data chunks. All chunks
// must share one size; the result is elided if any input is.
func ComputeP(chunks []Buffer) Buffer {
	if len(chunks) == 0 {
		panic("parity: ComputeP of no chunks")
	}
	acc := chunks[0].Clone()
	for _, c := range chunks[1:] {
		acc = XORInto(acc, c)
	}
	return acc
}

// ComputeQ returns the RAID-6 Q chunk: ⊕ g^i·D_i, where idx[i] is the
// data-chunk index of chunks[i]. idx may be nil, meaning 0..len-1.
func ComputeQ(chunks []Buffer, idx []int) Buffer {
	if len(chunks) == 0 {
		panic("parity: ComputeQ of no chunks")
	}
	if idx != nil && len(idx) != len(chunks) {
		panic("parity: ComputeQ idx length mismatch")
	}
	acc := Alloc(chunks[0].Len())
	for i, c := range chunks {
		j := i
		if idx != nil {
			j = idx[i]
		}
		acc = MulAddInto(acc, c, QCoeff(j))
	}
	return acc
}

// ComputePQ returns both RAID-6 parity chunks of a full stripe in one fused
// pass over the data (gf256.SyndromePQ reads every chunk exactly once, versus
// one sweep per syndrome for ComputeP + ComputeQ). Chunk i carries data-chunk
// index i. Results are elided if any input is.
func ComputePQ(chunks []Buffer) (p, q Buffer) {
	if len(chunks) == 0 {
		panic("parity: ComputePQ of no chunks")
	}
	n := chunks[0].Len()
	data := make([][]byte, len(chunks))
	for i, c := range chunks {
		if c.Len() != n {
			panic(fmt.Sprintf("parity: ComputePQ chunk %d is %d bytes, want %d", i, c.Len(), n))
		}
		if c.data == nil {
			return Buffer{size: n}, Buffer{size: n}
		}
		data[i] = c.data
	}
	p, q = Alloc(n), Alloc(n)
	gf256.SyndromePQ(p.data, q.data, data)
	return p, q
}

// ComputeParity returns the parities asked for — the fused pass when both —
// and a zero Buffer for one that is not.
func ComputeParity(chunks []Buffer, wantP, wantQ bool) (p, q Buffer) {
	switch {
	case wantP && wantQ:
		return ComputePQ(chunks)
	case wantP:
		p = ComputeP(chunks)
	case wantQ:
		q = ComputeQ(chunks, nil)
	}
	return p, q
}

// Delta returns old ⊕ new — the RMW partial-parity seed for P. (For Q the
// caller scales the delta by QCoeff of the chunk index.)
func Delta(oldB, newB Buffer) Buffer {
	return XORInto(oldB.Clone(), newB)
}
