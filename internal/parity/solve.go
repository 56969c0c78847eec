package parity

import (
	"errors"
	"fmt"

	"draid/internal/gf256"
)

// Stripe is the content of one chunk-relative range across a stripe's
// members, in chunk-index space: Data[i] is data chunk i, P and Q the parity
// chunks. A zero Buffer marks a member that is not in hand — erased, never
// read, or (Q below RAID-6) nonexistent. Every buffer in hand has one length.
type Stripe struct {
	Data []Buffer
	P, Q Buffer
}

// ErrUnsolvable reports more erasures than the parity in hand can solve.
var ErrUnsolvable = errors.New("parity: erasures exceed the surviving parity")

// SolveStripe is the one erasure decoder: it fills in, in place, the members
// of s the caller names as lost. Every data chunk not listed in lostData must
// be in hand; whatever s holds at a lost position is ignored.
//
//   - one lost data chunk is the XOR of P and the survivors, or — P not in
//     hand — the Q solve; two need P and Q together; more cannot be solved;
//   - wantP / wantQ recompute that parity from the (by then complete) data.
//
// Nothing in hand is modified: a solved member is a fresh buffer. If any
// buffer in hand is elided, every solved member comes back elided at the
// right size. Erasures past the parity in hand yield ErrUnsolvable and leave
// s untouched.
func SolveStripe(s *Stripe, lostData []int, wantP, wantQ bool) error {
	if len(lostData) == 0 && !wantP && !wantQ {
		return nil
	}
	lost := make([]bool, len(s.Data))
	for _, x := range lostData {
		if x < 0 || x >= len(lost) || lost[x] {
			panic(fmt.Sprintf("parity: lost data chunks %v of a %d-chunk stripe", lostData, len(lost)))
		}
		lost[x] = true
	}
	p, q := s.P, s.Q
	if wantP {
		p = Buffer{}
	}
	if wantQ {
		q = Buffer{}
	}
	need := len(lostData)
	if need > 2 || (need == 2 && (p.Len() == 0 || q.Len() == 0)) || (need == 1 && p.Len() == 0 && q.Len() == 0) {
		return fmt.Errorf("%d data chunk(s) lost, P in hand: %v, Q in hand: %v: %w",
			need, p.Len() > 0, q.Len() > 0, ErrUnsolvable)
	}

	// Survivors in byte form for the GF solves; n and elision from whatever
	// is in hand.
	n, elided := 0, false
	inHand := func(b Buffer) {
		if b.Len() > 0 {
			n = b.Len()
			elided = elided || b.Elided()
		}
	}
	inHand(p)
	inHand(q)
	var survivors [][]byte
	var survivorIdx []int
	for i, d := range s.Data {
		if lost[i] {
			continue
		}
		inHand(d)
		survivors = append(survivors, d.Data())
		survivorIdx = append(survivorIdx, i)
	}
	if elided {
		for _, x := range lostData {
			s.Data[x] = Sized(n)
		}
		if wantP {
			s.P = Sized(n)
		}
		if wantQ {
			s.Q = Sized(n)
		}
		return nil
	}

	switch {
	case need == 1 && p.Len() > 0:
		acc := p.Clone()
		for i, d := range s.Data {
			if !lost[i] {
				acc = XORInto(acc, d)
			}
		}
		s.Data[lostData[0]] = acc
	case need == 1:
		out := make([]byte, n)
		gf256.RecoverOneDataFromQ(out, q.Data(), survivors, survivorIdx, lostData[0])
		s.Data[lostData[0]] = FromBytes(out)
	case need == 2:
		// RecoverTwoData keeps dx↔x, dy↔y whatever the argument order.
		dx, dy := make([]byte, n), make([]byte, n)
		gf256.RecoverTwoData(dx, dy, p.Data(), q.Data(), survivors, survivorIdx, lostData[0], lostData[1])
		s.Data[lostData[0]], s.Data[lostData[1]] = FromBytes(dx), FromBytes(dy)
	}

	newP, newQ := ComputeParity(s.Data, wantP, wantQ)
	if wantP {
		s.P = newP
	}
	if wantQ {
		s.Q = newQ
	}
	return nil
}
