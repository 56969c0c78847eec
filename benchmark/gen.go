package main

import (
	"encoding/binary"
	"math/rand"
)

// blockSize is the generator's payload granule: every workload's I/O size
// and alignment is a multiple of it, and the shadow keeps one write-version
// per block.
const blockSize = 4096

// blockKey seeds one block's payload: a pure function of the workload seed,
// the block's index on the array, and how many times the run has written it
// (0 = the prefill image).
func blockKey(seed int64, blk int64, ver uint32) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(blk)*0xBF58476D1CE4E5B9 ^ uint64(ver)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	return x ^ x>>32
}

// Payload words come from four interleaved LCG streams off the block key
// (four, so the multiplies overlap instead of waiting on each other), each
// word whitened with a shift so neighbouring blocks share no byte runs.
const (
	lcgMul = 6364136223846793005
	lcgInc = 1442695040888963407
)

func lcgStreams(key uint64) (a, b, c, d uint64) {
	return key, key ^ 0x9E3779B97F4A7C15, key ^ 0xBF58476D1CE4E5B9, key ^ 0x94D049BB133111EB
}

// fillBlock writes one block's payload into dst (len(dst) == blockSize).
func fillBlock(dst []byte, key uint64) {
	a, b, c, d := lcgStreams(key)
	le := binary.LittleEndian
	for i := 0; i < blockSize; i += 32 {
		a, b, c, d = a*lcgMul+lcgInc, b*lcgMul+lcgInc, c*lcgMul+lcgInc, d*lcgMul+lcgInc
		w := dst[i : i+32 : i+32]
		le.PutUint64(w[0:], a^a>>29)
		le.PutUint64(w[8:], b^b>>29)
		le.PutUint64(w[16:], c^c>>29)
		le.PutUint64(w[24:], d^d>>29)
	}
}

// checkBlock reports whether src holds the payload fillBlock would write.
func checkBlock(src []byte, key uint64) bool {
	a, b, c, d := lcgStreams(key)
	le := binary.LittleEndian
	var diff uint64
	for i := 0; i < blockSize; i += 32 {
		a, b, c, d = a*lcgMul+lcgInc, b*lcgMul+lcgInc, c*lcgMul+lcgInc, d*lcgMul+lcgInc
		w := src[i : i+32 : i+32]
		diff |= (le.Uint64(w[0:]) ^ a ^ a>>29) | (le.Uint64(w[8:]) ^ b ^ b>>29) |
			(le.Uint64(w[16:]) ^ c ^ c>>29) | (le.Uint64(w[24:]) ^ d ^ d>>29)
	}
	return diff == 0
}

// shadow is the benchmark's model of what the array must hold: one
// write-version per block. Version 0 is the prefill image; every write the
// generator issues bumps the versions it covers.
type shadow struct {
	seed     int64
	versions []uint32
}

func newShadow(seed, size int64) *shadow {
	return &shadow{seed: seed, versions: make([]uint32, size/blockSize)}
}

// fill writes the current image of [off, off+len(dst)) into dst.
func (s *shadow) fill(dst []byte, off int64) {
	for i := 0; i < len(dst); i += blockSize {
		blk := (off + int64(i)) / blockSize
		fillBlock(dst[i:i+blockSize], blockKey(s.seed, blk, s.versions[blk]))
	}
}

// bump advances the version of every block in [off, off+n): the next fill
// of that range yields a fresh payload.
func (s *shadow) bump(off, n int64) {
	for blk := off / blockSize; blk < (off+n)/blockSize; blk++ {
		s.versions[blk]++
	}
}

// check reports whether data is the current image of [off, off+len(data)).
func (s *shadow) check(data []byte, off int64) bool {
	if len(data)%blockSize != 0 {
		return false
	}
	for i := 0; i < len(data); i += blockSize {
		blk := (off + int64(i)) / blockSize
		if !checkBlock(data[i:i+blockSize], blockKey(s.seed, blk, s.versions[blk])) {
			return false
		}
	}
	return true
}

// userOp is one generated user I/O.
type userOp struct {
	read bool
	off  int64
}

// lane is one closed-loop client. It owns a contiguous share of the array's
// address space, so the lanes never touch the same block and every lane's
// op sequence is a pure function of (workload, seed, lane index) however
// the lanes interleave in time.
type lane struct {
	rng       *rand.Rand
	base      int64
	slots     int64
	ioSize    int64
	readShare float64
}

// newLanes splits [0, size) into n equal lanes of ioSize-aligned slots.
func newLanes(w workload, seed, size int64, n int) []*lane {
	region := size / int64(n) / w.ioSize * w.ioSize
	lanes := make([]*lane, n)
	for i := range lanes {
		lanes[i] = &lane{
			rng:       rand.New(rand.NewSource(seed*int64(n) + int64(i))),
			base:      int64(i) * region,
			slots:     region / w.ioSize,
			ioSize:    w.ioSize,
			readShare: w.readShare,
		}
	}
	return lanes
}

// next draws the lane's next op: uniformly random aligned offset, read with
// probability readShare.
func (l *lane) next() userOp {
	off := l.base + l.rng.Int63n(l.slots)*l.ioSize
	read := l.readShare >= 1 || (l.readShare > 0 && l.rng.Float64() < l.readShare)
	return userOp{read: read, off: off}
}
