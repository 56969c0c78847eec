package parity

import (
	"math/rand"
	"testing"
	"testing/quick"

	"draid/internal/gf256"
)

func randBuf(rng *rand.Rand, n int) Buffer {
	b := make([]byte, n)
	rng.Read(b)
	return FromBytes(b)
}

func TestBufferBasics(t *testing.T) {
	b := FromBytes([]byte{1, 2, 3})
	if b.Len() != 3 || b.Elided() {
		t.Fatal("FromBytes broken")
	}
	e := Sized(10)
	if e.Len() != 10 || !e.Elided() || e.Data() != nil {
		t.Fatal("Sized broken")
	}
	z := Alloc(4)
	if z.Len() != 4 || z.Elided() {
		t.Fatal("Alloc broken")
	}
	for _, v := range z.Data() {
		if v != 0 {
			t.Fatal("Alloc not zeroed")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	b := FromBytes([]byte{1, 2, 3})
	c := b.Clone()
	c.Data()[0] = 99
	if b.Data()[0] != 1 {
		t.Fatal("Clone aliases original")
	}
	e := Sized(5).Clone()
	if !e.Elided() || e.Len() != 5 {
		t.Fatal("Clone of elided buffer broken")
	}
	if z := FromBytes([]byte{}).Clone(); z.Elided() || z.Len() != 0 {
		t.Fatal("Clone of an empty materialized buffer must stay materialized")
	}
}

func TestSlice(t *testing.T) {
	b := FromBytes([]byte{0, 1, 2, 3, 4})
	s := b.Slice(1, 3)
	if s.Len() != 3 || s.Data()[0] != 1 || s.Data()[2] != 3 {
		t.Fatalf("slice = %v", s.Data())
	}
	// Aliased: writing through the slice is visible in the parent.
	s.Data()[0] = 77
	if b.Data()[1] != 77 {
		t.Fatal("Slice should alias")
	}
	es := Sized(5).Slice(2, 2)
	if !es.Elided() || es.Len() != 2 {
		t.Fatal("Slice of elided buffer broken")
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FromBytes([]byte{1, 2}).Slice(1, 5)
}

func TestCopyAt(t *testing.T) {
	dst := Alloc(6)
	dst.CopyAt(2, FromBytes([]byte{9, 8}))
	want := []byte{0, 0, 9, 8, 0, 0}
	for i, v := range want {
		if dst.Data()[i] != v {
			t.Fatalf("dst = %v, want %v", dst.Data(), want)
		}
	}
	// Elided src must not panic and must leave dst usable.
	dst.CopyAt(0, Sized(3))
	if dst.Len() != 6 {
		t.Fatal("CopyAt with elided src corrupted dst")
	}
}

func TestCopyAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Alloc(2).CopyAt(1, FromBytes([]byte{1, 2}))
}

func TestEqual(t *testing.T) {
	a := FromBytes([]byte{1, 2})
	b := FromBytes([]byte{1, 2})
	c := FromBytes([]byte{1, 3})
	if !a.Equal(b) || a.Equal(c) {
		t.Fatal("Equal on materialized buffers broken")
	}
	if a.Equal(FromBytes([]byte{1})) {
		t.Fatal("Equal ignores size")
	}
	if !Sized(2).Equal(Sized(2)) {
		t.Fatal("two elided buffers of same size should be equal")
	}
	if a.Equal(Sized(2)) {
		t.Fatal("materialized != elided")
	}
}

func TestXORIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randBuf(rng, 64)
	b := randBuf(rng, 64)
	aCopy := a.Clone()
	got := XORInto(a, b)
	for i := 0; i < 64; i++ {
		if got.Data()[i] != aCopy.Data()[i]^b.Data()[i] {
			t.Fatal("XORInto mismatch")
		}
	}
}

func TestXORIntoElidedPropagates(t *testing.T) {
	got := XORInto(Alloc(8), Sized(8))
	if !got.Elided() || got.Len() != 8 {
		t.Fatal("xor with elided operand should be elided")
	}
	got = XORInto(Sized(8), Alloc(8))
	if !got.Elided() {
		t.Fatal("xor into elided dst should be elided")
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"XORInto":    func() { XORInto(Alloc(2), Alloc(3)) },
		"MulAddInto": func() { MulAddInto(Alloc(2), Alloc(3), 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestComputePMatchesGF(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	chunks := []Buffer{randBuf(rng, 32), randBuf(rng, 32), randBuf(rng, 32)}
	p := ComputeP(chunks)
	want := make([]byte, 32)
	for _, c := range chunks {
		gf256.XORSlice(want, c.Data())
	}
	if !p.Equal(FromBytes(want)) {
		t.Fatal("ComputeP mismatch")
	}
}

func TestComputeQMatchesSyndrome(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	raw := [][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 16), make([]byte, 16)}
	chunks := make([]Buffer, len(raw))
	for i := range raw {
		rng.Read(raw[i])
		chunks[i] = FromBytes(raw[i])
	}
	q := ComputeQ(chunks, nil)
	want := make([]byte, 16)
	gf256.SyndromePQ(nil, want, raw)
	if !q.Equal(FromBytes(want)) {
		t.Fatal("ComputeQ mismatch with SyndromePQ")
	}
}

func TestComputeQWithExplicitIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randBuf(rng, 8), randBuf(rng, 8)
	// Q over chunks at data indices 2 and 5.
	q := ComputeQ([]Buffer{a, b}, []int{2, 5})
	want := Alloc(8)
	want = MulAddInto(want, a, QCoeff(2))
	want = MulAddInto(want, b, QCoeff(5))
	if !q.Equal(want) {
		t.Fatal("ComputeQ with indices mismatch")
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	oldB, newB := randBuf(rng, 24), randBuf(rng, 24)
	d := Delta(oldB, newB)
	// old ⊕ delta == new
	back := XORInto(oldB.Clone(), d)
	if !back.Equal(newB) {
		t.Fatal("Delta is not old⊕new")
	}
}

// Property: RMW parity update via Delta equals recomputing P from scratch.
func TestPropertyRMWEqualsRecompute(t *testing.T) {
	f := func(seed int64, which uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const k, n = 6, 20
		chunks := make([]Buffer, k)
		for i := range chunks {
			chunks[i] = randBuf(rng, n)
		}
		p := ComputeP(chunks)

		i := int(which) % k
		newChunk := randBuf(rng, n)
		delta := Delta(chunks[i], newChunk)
		pRMW := XORInto(p.Clone(), delta)

		chunks[i] = newChunk
		pFull := ComputeP(chunks)
		return pRMW.Equal(pFull)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: reduction order does not matter (XOR is commutative/associative),
// which is the mathematical foundation of dRAID's non-blocking reduce (§5).
func TestPropertyReductionOrderIrrelevant(t *testing.T) {
	f := func(seed int64, perm []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const k, n = 5, 16
		parts := make([]Buffer, k)
		for i := range parts {
			parts[i] = randBuf(rng, n)
		}
		forward := Alloc(n)
		for _, p := range parts {
			forward = XORInto(forward, p)
		}
		// Reduce in a permuted order derived from perm.
		order := rng.Perm(k)
		shuffled := Alloc(n)
		for _, j := range order {
			shuffled = XORInto(shuffled, parts[j])
		}
		return forward.Equal(shuffled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestComputePEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ComputeP(nil)
}

func TestMulInto(t *testing.T) {
	src := FromBytes([]byte{1, 2, 4})
	out := MulInto(src, 2)
	for i, s := range src.Data() {
		if out.Data()[i] != gf256.Mul(s, 2) {
			t.Fatal("MulInto mismatch")
		}
	}
	if !MulInto(Sized(3), 2).Elided() {
		t.Fatal("MulInto of elided should be elided")
	}
}
