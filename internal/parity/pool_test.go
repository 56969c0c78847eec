package parity

import "testing"

func TestPoolGetReturnsZeroedReuse(t *testing.T) {
	p := NewPool()
	a := p.Get(16)
	for i := range a.Data() {
		a.Data()[i] = 0xAB
	}
	p.Put(a)

	b := p.Get(16)
	if &b.Data()[0] != &a.Data()[0] {
		t.Fatal("Get after Put should reuse the recycled storage")
	}
	for i, v := range b.Data() {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %#x", i, v)
		}
	}
	if st := p.Stats(); st.Gets != 2 || st.Hits != 1 || st.Puts != 1 || st.Outstanding() != 1 {
		t.Fatalf("stats = %+v, want 2 gets / 1 hit / 1 put / 1 outstanding", st)
	}
}

// TestPoolGetUnclearedSkipsTheClear: the uncleared get reuses storage as it
// was left and books the same traffic as Get; from a nil pool it allocates.
func TestPoolGetUnclearedSkipsTheClear(t *testing.T) {
	p := NewPool()
	a := p.GetUncleared(16)
	if len(a.Data()) != 16 {
		t.Fatalf("got %d bytes, want 16", len(a.Data()))
	}
	a.Data()[3] = 0xAB
	a.Release()
	b := p.GetUncleared(16)
	if &b.Data()[0] != &a.Data()[0] || b.Data()[3] != 0xAB {
		t.Fatal("GetUncleared should hand back the released storage as it was left")
	}
	b.Release()
	if st := p.Stats(); st.Gets != 2 || st.Hits != 1 || st.Puts != 2 || st.Outstanding() != 0 {
		t.Fatalf("stats = %+v, want 2 gets / 1 hit / 2 puts / none outstanding", st)
	}
	var nilPool *Pool
	if c := nilPool.GetUncleared(4); c.Elided() || c.Len() != 4 {
		t.Fatal("nil pool GetUncleared should allocate")
	}
}

func TestPoolSizesAreSegregated(t *testing.T) {
	p := NewPool()
	a := p.Get(8)
	p.Put(a)
	if b := p.Get(16); len(b.Data()) != 16 {
		t.Fatalf("got %d-byte buffer, want 16", len(b.Data()))
	}
	if p.Stats().Hits != 0 {
		t.Fatal("a different size must not hit the free list")
	}
	if c := p.Get(8); &c.Data()[0] != &a.Data()[0] {
		t.Fatal("the 8-byte buffer should still be reusable")
	}
}

// TestPoolOwnership pins the rules the realtime datapath leans on: Release
// returns exactly the pool's own whole buffers; views, copies and foreign
// buffers can never recycle storage; Disown balances the books without reuse.
func TestPoolOwnership(t *testing.T) {
	p := NewPool()
	a := p.Get(8)
	a.Slice(0, 8).Release()
	a.Clone().Release()
	p.Put(FromBytes(make([]byte, 8)))
	NewPool().Put(a)
	if st := p.Stats(); st.Puts != 0 || st.Outstanding() != 1 {
		t.Fatalf("slice/clone/foreign releases must be no-ops, got %+v", st)
	}
	if b := p.Get(8); &b.Data()[0] == &a.Data()[0] {
		t.Fatal("storage recycled without its owner releasing it")
	}

	kept := a.Disown()
	kept.Release() // disowned: no longer the pool's to recycle
	if st := p.Stats(); st.Disowned != 1 || st.Puts != 0 || st.Outstanding() != 1 {
		t.Fatalf("after Disown: %+v", st)
	}
	if &kept.Data()[0] != &a.Data()[0] {
		t.Fatal("Disown must keep the bytes")
	}

	d := p.Get(4)
	d.Data()[0] = 7
	d.Release()
	if d2 := p.Get(4); &d2.Data()[0] != &d.Data()[0] || d2.Data()[0] != 0 {
		t.Fatal("Get should hand back the released storage, zeroed")
	}
}

// TestPoolLimit: past the cap a released buffer is dropped, not parked.
func TestPoolLimit(t *testing.T) {
	p := NewPool()
	var bufs []Buffer
	for i := 0; i < 3; i++ {
		bufs = append(bufs, p.Get(poolLimit/2))
	}
	for _, b := range bufs {
		b.Release()
	}
	for i := 0; i < 3; i++ {
		p.Get(poolLimit / 2)
	}
	if st := p.Stats(); st.Puts != 3 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 3 puts and only 2 hits under the cap", st)
	}
}

func TestPoolNilSafe(t *testing.T) {
	var p *Pool
	b := p.Get(4)
	if b.Elided() || b.Len() != 4 {
		t.Fatal("nil pool Get should allocate")
	}
	p.Put(b) // must not panic
	if p.Stats() != (PoolStats{}) {
		t.Fatal("nil pool should report empty stats")
	}
}

func TestPoolIgnoresElidedPut(t *testing.T) {
	p := NewPool()
	p.Put(Sized(8))
	if b := p.Get(8); b.Elided() {
		t.Fatal("elided Put must not poison the free list")
	}
	if p.Stats().Hits != 0 {
		t.Fatal("elided Put must not be reusable")
	}
}

func TestScaleInPlace(t *testing.T) {
	b := FromBytes([]byte{1, 2, 3})
	want := MulInto(b, 7)
	got := Scale(b, 7)
	if !got.Equal(want) {
		t.Fatal("Scale disagrees with MulInto")
	}
	if &got.Data()[0] != &b.Data()[0] {
		t.Fatal("Scale should operate in place")
	}
	if !Scale(Sized(3), 7).Elided() {
		t.Fatal("Scale of elided should stay elided")
	}
}

// BenchmarkAccumulatorAllocVsPool measures the allocation behaviour the
// server reduce path cares about: grab an accumulator, fold a contribution
// in, release it. The pooled variant amortises to zero allocations per
// stripe once the free list is warm.
func BenchmarkAccumulatorAllocVsPool(b *testing.B) {
	const n = 64 << 10
	contrib := Alloc(n)
	for i := range contrib.Data() {
		contrib.Data()[i] = byte(i)
	}
	b.Run("alloc", func(b *testing.B) {
		b.SetBytes(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc := Alloc(n)
			MulAddInto(acc, contrib, 3)
		}
	})
	b.Run("pool", func(b *testing.B) {
		p := NewPool()
		b.SetBytes(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc := p.Get(n)
			MulAddInto(acc, contrib, 3)
			p.Put(acc)
		}
	})
}

func TestComputePQMatchesSeparate(t *testing.T) {
	chunks := []Buffer{
		FromBytes([]byte{1, 2, 3, 4}),
		FromBytes([]byte{5, 6, 7, 8}),
		FromBytes([]byte{9, 10, 11, 12}),
	}
	p, q := ComputePQ(chunks)
	if !p.Equal(ComputeP(chunks)) {
		t.Fatal("fused P differs from ComputeP")
	}
	if !q.Equal(ComputeQ(chunks, nil)) {
		t.Fatal("fused Q differs from ComputeQ")
	}

	pE, qE := ComputePQ([]Buffer{FromBytes([]byte{1, 2}), Sized(2)})
	if !pE.Elided() || !qE.Elided() {
		t.Fatal("any elided input should elide both results")
	}
}
