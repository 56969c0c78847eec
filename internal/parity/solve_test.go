package parity

import (
	"errors"
	"math/rand"
	"testing"
)

func ptrs(bs []Buffer) []*Buffer {
	out := make([]*Buffer, len(bs))
	for i := range bs {
		out[i] = &bs[i]
	}
	return out
}

// solveCase erases the listed positions of a random k-chunk stripe — P and Q
// take positions k and k+1 — and checks what SolveStripe makes of it.
func solveCase(t *testing.T, seed int64, k, n int, erase []int, elide bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	orig := Stripe{Data: make([]Buffer, k)}
	for i := range orig.Data {
		orig.Data[i] = randBuf(rng, n)
	}
	orig.P, orig.Q = ComputePQ(orig.Data)

	s := Stripe{Data: append([]Buffer(nil), orig.Data...), P: orig.P, Q: orig.Q}
	var lostData []int
	wantP, wantQ := false, false
	for _, e := range erase {
		switch e {
		case k:
			wantP, s.P = true, Buffer{}
		case k + 1:
			wantQ, s.Q = true, Buffer{}
		default:
			lostData = append(lostData, e)
			s.Data[e] = Buffer{}
		}
	}
	if elide {
		// Elide the first buffer still in hand: at most three of the k+2 ≥ 4
		// are erased.
		for _, b := range append(ptrs(s.Data), &s.P, &s.Q) {
			if b.Len() > 0 {
				*b = Sized(n)
				break
			}
		}
	}
	before := Stripe{Data: append([]Buffer(nil), s.Data...), P: s.P, Q: s.Q}

	err := SolveStripe(&s, lostData, wantP, wantQ)
	if len(erase) > 2 {
		if !errors.Is(err, ErrUnsolvable) {
			t.Fatalf("k=%d erase=%v: err = %v, want ErrUnsolvable", k, erase, err)
		}
		for i := range s.Data {
			if !s.Data[i].Equal(before.Data[i]) {
				t.Fatalf("k=%d erase=%v: unsolvable stripe modified at data %d", k, erase, i)
			}
		}
		return
	}
	if err != nil {
		t.Fatalf("k=%d n=%d erase=%v: %v", k, n, erase, err)
	}
	check := func(what string, got, want Buffer) {
		t.Helper()
		if elide {
			if !got.Elided() || got.Len() != n {
				t.Fatalf("k=%d erase=%v: %s = %d bytes (elided=%v), want elided %d", k, erase, what, got.Len(), got.Elided(), n)
			}
		} else if !got.Equal(want) {
			t.Fatalf("k=%d n=%d erase=%v: %s solved wrong", k, n, erase, what)
		}
	}
	for _, x := range lostData {
		check("data chunk", s.Data[x], orig.Data[x])
	}
	if wantP {
		check("P", s.P, orig.P)
	}
	if wantQ {
		check("Q", s.Q, orig.Q)
	}
	// Nothing in hand was touched.
	for i, b := range before.Data {
		if b.Len() > 0 && !b.Elided() && !b.Equal(orig.Data[i]) {
			t.Fatalf("k=%d erase=%v: survivor %d modified", k, erase, i)
		}
	}
	if !wantP && !before.P.Elided() && !before.P.Equal(orig.P) {
		t.Fatalf("k=%d erase=%v: surviving P modified", k, erase)
	}
	if !wantQ && !before.Q.Elided() && !before.Q.Equal(orig.Q) {
		t.Fatalf("k=%d erase=%v: surviving Q modified", k, erase)
	}
}

func TestSolveStripe(t *testing.T) {
	const k = 5
	for _, erase := range [][]int{
		{},            // nothing lost
		{2},           // one data chunk, through P
		{0, 4},        // two data chunks, through P and Q
		{3, 1},        // lost order does not matter
		{1, k},        // data + P: through Q, P recomputed
		{1, k + 1},    // data + Q: through P, Q recomputed
		{k},           // P recomputed
		{k + 1},       // Q recomputed
		{k, k + 1},    // both parities recomputed
		{0, 1, 2},     // three data chunks
		{0, 1, k},     // two data chunks need both parities
		{0, k, k + 1}, // a data chunk with no parity left
		{4, 2, k + 1}, // likewise
	} {
		for _, elide := range []bool{false, true} {
			solveCase(t, 7, k, 4096, erase, elide)
		}
	}
}

// A RAID-5 caller has no Q; a caller that skipped an unneeded parity read has
// it not in hand either. Neither is asked to be recomputed.
func TestSolveStripeParityNotInHand(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := []Buffer{randBuf(rng, 512), randBuf(rng, 512), randBuf(rng, 512)}
	p, q := ComputePQ(data)

	s := Stripe{Data: []Buffer{data[0], {}, data[2]}, P: p}
	if err := SolveStripe(&s, []int{1}, false, false); err != nil || !s.Data[1].Equal(data[1]) {
		t.Fatalf("one data chunk through P alone: err=%v", err)
	}
	if s.Q.Len() != 0 {
		t.Fatal("Q materialized though nobody asked for it")
	}
	s = Stripe{Data: []Buffer{{}, data[1], data[2]}, Q: q}
	if err := SolveStripe(&s, []int{0}, false, false); err != nil || !s.Data[0].Equal(data[0]) {
		t.Fatalf("one data chunk through Q alone: err=%v", err)
	}
	s = Stripe{Data: []Buffer{{}, {}, data[2]}, P: p}
	if err := SolveStripe(&s, []int{0, 1}, false, false); !errors.Is(err, ErrUnsolvable) {
		t.Fatalf("two data chunks through P alone: err=%v, want ErrUnsolvable", err)
	}
	s = Stripe{Data: []Buffer{data[0], {}, data[2]}}
	if err := SolveStripe(&s, []int{1}, true, false); !errors.Is(err, ErrUnsolvable) {
		t.Fatalf("data chunk and P lost on RAID-5: err=%v, want ErrUnsolvable", err)
	}
}

func FuzzSolveStripe(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(100), uint8(2), uint16(0x0102), false)
	f.Add(int64(2), uint8(14), uint16(4095), uint8(3), uint16(0xfffe), false)
	f.Add(int64(3), uint8(0), uint16(0), uint8(1), uint16(7), true)
	f.Fuzz(func(t *testing.T, seed int64, kRaw uint8, nRaw uint16, count uint8, pick uint16, elide bool) {
		k := 2 + int(kRaw)%15   // [2,16]
		n := 1 + int(nRaw)%4096 // [1,4096]
		// count%4 distinct positions out of k data chunks + P + Q.
		pos := rand.New(rand.NewSource(int64(pick))).Perm(k + 2)
		solveCase(t, seed, k, n, pos[:int(count)%4], elide)
	})
}
