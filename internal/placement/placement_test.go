package placement

import "testing"

// TestFixedMatchesLegacyArithmetic pins Fixed to the pre-layout address
// math: member m on drive m, stripe s at base + s*chunk, stripes =
// extent/chunk.
func TestFixedMatchesLegacyArithmetic(t *testing.T) {
	const base, chunk, width, extent = 4096, 512, 5, 16 * 512
	f := NewFixed(base, chunk, width, extent)
	if f.Stripes() != 16 {
		t.Fatalf("stripes = %d, want 16", f.Stripes())
	}
	if f.Drives() != width || f.Width() != width {
		t.Fatalf("drives/width = %d/%d, want %d", f.Drives(), f.Width(), width)
	}
	for s := int64(0); s < f.Stripes(); s++ {
		if got, want := f.StripeBase(s), int64(base+s*chunk); got != want {
			t.Fatalf("StripeBase(%d) = %d, want %d", s, got, want)
		}
		for m := 0; m < width; m++ {
			if f.Drive(s, m) != m {
				t.Fatalf("Drive(%d,%d) = %d, want %d", s, m, f.Drive(s, m), m)
			}
			if f.Member(s, m) != m {
				t.Fatalf("Member(%d,%d) = %d, want %d", s, m, f.Member(s, m), m)
			}
		}
	}
	if f.Member(0, width) != -1 || f.Member(0, -1) != -1 {
		t.Fatalf("Member out of range should be -1")
	}
}

func newTestDeclustered(t *testing.T, width, drives int, rows int64, seed int64) *Declustered {
	t.Helper()
	const chunk = 1 << 10
	d, err := NewDeclustered(0, rows*chunk, chunk, width, drives, seed)
	if err != nil {
		t.Fatalf("NewDeclustered: %v", err)
	}
	return d
}

// TestDeclusteredInvariants checks the structural properties every stripe
// placement must satisfy: W distinct drives per stripe, a shared stripe
// base, no two chunks of one row sharing a drive, and Member/Drive
// inverse consistency.
func TestDeclusteredInvariants(t *testing.T) {
	for _, tc := range []struct{ width, drives int }{{3, 5}, {4, 6}, {4, 13}, {5, 11}} {
		d := newTestDeclustered(t, tc.width, tc.drives, 32, 42)
		spr := int64(tc.drives-1) / int64(tc.width)
		if d.Stripes() != 32*spr {
			t.Fatalf("w=%d d=%d: stripes = %d, want %d", tc.width, tc.drives, d.Stripes(), 32*spr)
		}
		for row := int64(0); row < 32; row++ {
			seen := map[int]int64{}
			for s := row * spr; s < (row+1)*spr; s++ {
				if got, want := d.StripeBase(s), row*(1<<10); got != want {
					t.Fatalf("StripeBase(%d) = %d, want %d", s, got, want)
				}
				for m := 0; m < tc.width; m++ {
					dr := d.Drive(s, m)
					if dr < 0 || dr >= tc.drives {
						t.Fatalf("Drive(%d,%d) = %d out of range", s, m, dr)
					}
					if prev, dup := seen[dr]; dup {
						t.Fatalf("row %d: drive %d holds chunks of stripes %d and %d", row, dr, prev, s)
					}
					seen[dr] = s
					if back := d.Member(s, dr); back != m {
						t.Fatalf("Member(%d,%d) = %d, want %d", s, dr, back, m)
					}
				}
			}
			if len(seen) > tc.drives-1 {
				t.Fatalf("row %d: no idle spare slot (%d drives used of %d)", row, len(seen), tc.drives)
			}
		}
	}
}

// TestDeclusteredDeterministicAndSpread verifies that the same seed
// reproduces the same placement, different seeds differ, and chunks
// spread roughly evenly over the drives.
func TestDeclusteredDeterministicAndSpread(t *testing.T) {
	const width, drives, rows = 4, 9, 256
	a := newTestDeclustered(t, width, drives, rows, 7)
	b := newTestDeclustered(t, width, drives, rows, 7)
	c := newTestDeclustered(t, width, drives, rows, 8)
	differ := false
	counts := make([]int, drives)
	for s := int64(0); s < a.Stripes(); s++ {
		for m := 0; m < width; m++ {
			if a.Drive(s, m) != b.Drive(s, m) {
				t.Fatalf("same seed diverged at (%d,%d)", s, m)
			}
			if a.Drive(s, m) != c.Drive(s, m) {
				differ = true
			}
			counts[a.Drive(s, m)]++
		}
	}
	if !differ {
		t.Fatalf("seeds 7 and 8 produced identical placements")
	}
	fair := int(a.Stripes()) * width / drives
	for dr, n := range counts {
		if n < fair/2 || n > fair*2 {
			t.Fatalf("drive %d holds %d chunks, fair share %d", dr, n, fair)
		}
	}
}

// TestDeclusteredFailedDriveShare verifies the declustering payoff: one
// drive intersects only ~Stripes·W/D stripes, so tripling the drive
// count cuts a failed drive's chunk count to roughly a third.
func TestDeclusteredFailedDriveShare(t *testing.T) {
	const width = 4
	small := newTestDeclustered(t, width, 6, 240, 3) // spr 1 -> 240 stripes
	big := newTestDeclustered(t, width, 18, 60, 3)   // spr 4 -> 240 stripes
	ns, nb := len(small.Slots(0)), len(big.Slots(0))
	if ns == 0 || nb == 0 {
		t.Fatalf("drive 0 holds no chunks (%d, %d)", ns, nb)
	}
	if ratio := float64(nb) / float64(ns); ratio > 0.6 {
		t.Fatalf("3x drives left %.2f of the chunks on one drive, want <= 0.6 (%d vs %d)", ratio, nb, ns)
	}
}

// TestDeclusteredCommitAndClaim exercises the relocation machinery:
// ClaimSpare reserves an idle row slot, Commit rewires Drive/Member and
// clears the reservation, Release cancels, and claims in one row never
// collide.
func TestDeclusteredCommitAndClaim(t *testing.T) {
	d := newTestDeclustered(t, 4, 14, 16, 5) // spr 3, 2 idle slots per row
	stripe := int64(4)                       // row 1
	from := d.Drive(stripe, 2)

	sp1, ok := d.ClaimSpare(stripe, nil)
	if !ok {
		t.Fatalf("no spare slot in a 13-drive row")
	}
	if d.occupied(stripe/d.spr, sp1) != true {
		t.Fatalf("claimed drive not reserved")
	}
	// A second claim in the same row must pick a different drive.
	sp2, ok := d.ClaimSpare(stripe+1, nil)
	if !ok || sp2 == sp1 {
		t.Fatalf("second claim returned %d (first %d, ok %v)", sp2, sp1, ok)
	}
	d.Release(stripe+1, sp2)

	d.Commit(stripe, 2, sp1)
	if d.Drive(stripe, 2) != sp1 {
		t.Fatalf("Drive after commit = %d, want %d", d.Drive(stripe, 2), sp1)
	}
	if d.Member(stripe, sp1) != 2 || d.Member(stripe, from) != -1 {
		t.Fatalf("Member not rewired: on new %d, on old %d", d.Member(stripe, sp1), d.Member(stripe, from))
	}
	// Excluded drives are never picked.
	if sp, ok := d.ClaimSpare(stripe, func(int) bool { return true }); ok {
		t.Fatalf("exclude-all still claimed %d", sp)
	}
	// Committing back to the seeded position drops the override.
	d.Commit(stripe, 2, from)
	if len(d.overrides) != 0 {
		t.Fatalf("identity commit left %d overrides", len(d.overrides))
	}
}

// TestDeclusteredAddRemove exercises online expansion planning: AddDrive
// grows the set, PlanAdd moves roughly a fair share onto the new drive
// (at most one chunk per row), and after moving every one of Slots' chunks
// the removed drive is empty.
func TestDeclusteredAddRemove(t *testing.T) {
	const width, drives, rows = 4, 6, 128
	d := newTestDeclustered(t, width, drives, rows, 9)
	nd := d.AddDrive()
	if nd != drives || d.Drives() != drives+1 {
		t.Fatalf("AddDrive = %d (drives %d), want %d (%d)", nd, d.Drives(), drives, drives+1)
	}
	moves := d.PlanAdd(nd)
	if len(moves) == 0 {
		t.Fatalf("PlanAdd moved nothing")
	}
	perRow := map[int64]int{}
	for _, mv := range moves {
		if mv.To != nd {
			t.Fatalf("move targets drive %d, want %d", mv.To, nd)
		}
		perRow[mv.Stripe/d.spr]++
		if !d.ClaimDrive(mv.Stripe, mv.To) {
			t.Fatalf("ClaimDrive refused planned move %+v", mv)
		}
		d.Commit(mv.Stripe, mv.Member, mv.To)
	}
	for row, n := range perRow {
		if n > 1 {
			t.Fatalf("row %d received %d chunks in one rebalance", row, n)
		}
	}
	fair := int(d.Stripes()) * width / d.Drives()
	if got := len(d.Slots(nd)); got < fair/2 || got > fair*2 {
		t.Fatalf("new drive holds %d chunks, fair share %d", got, fair)
	}

	// Retire drive 0: migrate everything off it via ClaimSpare.
	victims := d.Slots(0)
	d.SetRemoved(0, true)
	for _, sl := range victims {
		sp, ok := d.ClaimSpare(sl.Stripe, nil)
		if !ok {
			t.Fatalf("no spare for %+v", sl)
		}
		if sp == 0 {
			t.Fatalf("ClaimSpare picked the removed drive")
		}
		d.Commit(sl.Stripe, sl.Member, sp)
	}
	if left := d.Slots(0); len(left) != 0 {
		t.Fatalf("removed drive still holds %d chunks", len(left))
	}
}
