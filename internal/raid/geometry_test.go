package raid

import (
	"testing"
	"testing/quick"
)

func geo5() Geometry { return Geometry{Level: Raid5, Width: 8, ChunkSize: 512 << 10} }
func geo6() Geometry { return Geometry{Level: Raid6, Width: 8, ChunkSize: 512 << 10} }

func TestValidate(t *testing.T) {
	if err := geo5().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Geometry{Level: Raid5, Width: 2, ChunkSize: 4096}).Validate(); err == nil {
		t.Fatal("width 2 RAID-5 should be invalid")
	}
	if err := (Geometry{Level: Raid6, Width: 3, ChunkSize: 4096}).Validate(); err == nil {
		t.Fatal("width 3 RAID-6 should be invalid")
	}
	if err := (Geometry{Level: Raid5, Width: 4, ChunkSize: 0}).Validate(); err == nil {
		t.Fatal("zero chunk size should be invalid")
	}
}

func TestCounts(t *testing.T) {
	if geo5().DataChunks() != 7 || geo6().DataChunks() != 6 {
		t.Fatal("data chunk counts wrong")
	}
	if geo5().StripeDataSize() != 7*512<<10 {
		t.Fatal("stripe data size wrong")
	}
	if Raid5.ParityCount() != 1 || Raid6.ParityCount() != 2 {
		t.Fatal("parity counts wrong")
	}
}

func TestParityRotates(t *testing.T) {
	g := geo5()
	seen := make(map[int]int)
	for s := int64(0); s < 16; s++ {
		seen[g.PDrive(s)]++
	}
	for d := 0; d < 8; d++ {
		if seen[d] != 2 {
			t.Fatalf("parity visits drive %d %d times over 16 stripes, want 2", d, seen[d])
		}
	}
}

func TestQFollowsP(t *testing.T) {
	g := geo6()
	for s := int64(0); s < 20; s++ {
		p, q := g.PDrive(s), g.QDrive(s)
		if q != (p+1)%8 {
			t.Fatalf("stripe %d: q=%d not adjacent to p=%d", s, q, p)
		}
	}
}

func TestQDriveOnRaid5Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	geo5().QDrive(0)
}

func TestDataDriveAvoidsParityAndCoversAll(t *testing.T) {
	for _, g := range []Geometry{geo5(), geo6()} {
		for s := int64(0); s < 10; s++ {
			used := map[int]bool{g.PDrive(s): true}
			if g.Level == Raid6 {
				used[g.QDrive(s)] = true
			}
			for c := 0; c < g.DataChunks(); c++ {
				d := g.DataDrive(s, c)
				if used[d] {
					t.Fatalf("%v stripe %d chunk %d collides on drive %d", g.Level, s, c, d)
				}
				used[d] = true
			}
			if len(used) != g.Width {
				t.Fatalf("stripe %d does not cover all drives", s)
			}
		}
	}
}

func TestRoleInvertsPlacement(t *testing.T) {
	for _, g := range []Geometry{geo5(), geo6()} {
		for s := int64(0); s < 10; s++ {
			if k, _ := g.Role(s, g.PDrive(s)); k != KindP {
				t.Fatalf("Role of P drive = %v", k)
			}
			if g.Level == Raid6 {
				if k, _ := g.Role(s, g.QDrive(s)); k != KindQ {
					t.Fatalf("Role of Q drive = %v", k)
				}
			}
			for c := 0; c < g.DataChunks(); c++ {
				k, idx := g.Role(s, g.DataDrive(s, c))
				if k != KindData || idx != c {
					t.Fatalf("Role(stripe %d, DataDrive(%d)) = %v,%d", s, c, k, idx)
				}
			}
		}
	}
}

func TestDataChunkOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	geo5().DataDrive(0, 7)
}

func TestSplitSingleChunk(t *testing.T) {
	g := geo5()
	exts := g.Split(0, 1000)
	if len(exts) != 1 {
		t.Fatalf("%d extents, want 1", len(exts))
	}
	e := exts[0]
	if e.Stripe != 0 || e.Chunk != 0 || e.Off != 0 || e.Len != 1000 || e.VOff != 0 {
		t.Fatalf("extent = %+v", e)
	}
}

func TestSplitCrossesChunkAndStripe(t *testing.T) {
	g := Geometry{Level: Raid5, Width: 4, ChunkSize: 100} // k=3, stripe=300
	exts := g.Split(250, 200)                             // covers [250,450): chunks s0c2(50), s1c0(100), s1c1(50)
	want := []Extent{
		{Stripe: 0, Chunk: 2, Off: 50, Len: 50, VOff: 0},
		{Stripe: 1, Chunk: 0, Off: 0, Len: 100, VOff: 50},
		{Stripe: 1, Chunk: 1, Off: 0, Len: 50, VOff: 150},
	}
	if len(exts) != len(want) {
		t.Fatalf("exts = %+v", exts)
	}
	for i := range want {
		if exts[i] != want[i] {
			t.Fatalf("ext[%d] = %+v, want %+v", i, exts[i], want[i])
		}
	}
}

func TestSplitZeroLength(t *testing.T) {
	if exts := geo5().Split(100, 0); len(exts) != 0 {
		t.Fatalf("zero-length split produced %v", exts)
	}
}

// Property: Split covers the requested range exactly, in order, with no
// overlap, and each extent stays within one chunk.
func TestPropertySplitPartitionsRange(t *testing.T) {
	g := Geometry{Level: Raid6, Width: 6, ChunkSize: 64}
	f := func(offRaw, lenRaw uint16) bool {
		off, length := int64(offRaw), int64(lenRaw)
		exts := g.Split(off, length)
		var total int64
		nextV := int64(0)
		for _, e := range exts {
			if e.VOff != nextV {
				return false
			}
			if e.Off < 0 || e.Off+e.Len > g.ChunkSize || e.Len <= 0 {
				return false
			}
			if e.Chunk < 0 || e.Chunk >= g.DataChunks() {
				return false
			}
			// Extent's virtual position must equal its geometric position.
			vpos := e.Stripe*g.StripeDataSize() + int64(e.Chunk)*g.ChunkSize + e.Off
			if vpos != off+e.VOff {
				return false
			}
			nextV += e.Len
			total += e.Len
		}
		return total == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStripeRunGroups(t *testing.T) {
	g := Geometry{Level: Raid5, Width: 4, ChunkSize: 100}
	exts := g.Split(250, 200)
	first := StripeRun(exts)
	if len(first) != 1 || first[0].Stripe != 0 {
		t.Fatalf("first run = %v", first)
	}
	second := StripeRun(exts[len(first):])
	if len(second) != 2 || second[0].Stripe != 1 || second[1].Stripe != 1 {
		t.Fatalf("second run = %v", second)
	}
	// A run is capped: appending to it copies rather than overwriting the
	// next stripe's extents.
	_ = append(first, Extent{Stripe: 9})
	if exts[1].Stripe != 1 {
		t.Fatalf("append to a run overwrote the next one: %v", exts)
	}
	if got := g.AppendSplit(exts[:0], 250, 200); len(got) != 3 || &got[0] != &exts[0] {
		t.Fatalf("AppendSplit did not reuse its scratch: %v", got)
	}
}

// The paper's mode boundaries for k=7, 512 KB chunks (§9.3): RMW strictly
// below 1536 KB; reconstruct write in [1536 KB, 3584 KB); full at 3584 KB.
func TestWriteModeBoundariesMatchPaper(t *testing.T) {
	g := geo5()
	cases := []struct {
		size int64
		want WriteMode
	}{
		{4 << 10, ModeRMW},
		{128 << 10, ModeRMW},
		{1024 << 10, ModeRMW},
		{1535 << 10, ModeRMW},
		{1536 << 10, ModeRCW},
		{2048 << 10, ModeRCW},
		{3583 << 10, ModeRCW},
		{3584 << 10, ModeFull},
	}
	for _, tc := range cases {
		exts := g.Split(0, tc.size)
		if got := g.DecideWriteMode(exts); got != tc.want {
			t.Errorf("size %dKB: mode = %v, want %v", tc.size>>10, got, tc.want)
		}
	}
}

// RAID-6 stripe is 6·512 KB = 3072 KB; RMW needs w+2 ≤ reads of RCW.
func TestWriteModeBoundariesRaid6(t *testing.T) {
	g := geo6()
	if got := g.DecideWriteMode(g.Split(0, 512<<10)); got != ModeRMW {
		t.Fatalf("RAID-6 1-chunk write = %v, want RMW", got)
	}
	// w=2: rmw reads 4, rcw reads 4 ⇒ RCW on tie.
	if got := g.DecideWriteMode(g.Split(0, 1024<<10)); got != ModeRCW {
		t.Fatalf("RAID-6 2-chunk write = %v, want RCW", got)
	}
	if got := g.DecideWriteMode(g.Split(0, 3072<<10)); got != ModeFull {
		t.Fatalf("RAID-6 full-stripe write = %v, want Full", got)
	}
}

func TestWriteModeUnalignedPartialCoverage(t *testing.T) {
	g := Geometry{Level: Raid5, Width: 4, ChunkSize: 100} // k=3
	// Touch all 3 chunks but not fully: cannot be full-stripe.
	exts := g.Split(50, 200)
	if got := g.DecideWriteMode(exts); got == ModeFull {
		t.Fatal("partial coverage must not be full-stripe")
	}
}

func TestWriteModeCrossStripePanics(t *testing.T) {
	g := Geometry{Level: Raid5, Width: 4, ChunkSize: 100}
	exts := g.Split(250, 200) // spans stripes 0 and 1
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	g.DecideWriteMode(exts)
}

func TestVirtualSize(t *testing.T) {
	g := Geometry{Level: Raid5, Width: 4, ChunkSize: 100}
	// 1000-byte drives: 10 stripes × 300 data bytes.
	if got := g.VirtualSize(1000); got != 3000 {
		t.Fatalf("virtual size = %d, want 3000", got)
	}
}

func TestDriveOffset(t *testing.T) {
	g := geo5()
	if g.DriveOffset(3) != 3*512<<10 {
		t.Fatal("drive offset wrong")
	}
}

func TestModeAndLevelStrings(t *testing.T) {
	if Raid5.String() != "RAID-5" || Raid6.String() != "RAID-6" {
		t.Fatal("level strings wrong")
	}
	for _, m := range []WriteMode{ModeRMW, ModeRCW, ModeFull, WriteMode(9)} {
		if m.String() == "" {
			t.Fatal("empty mode string")
		}
	}
}
