// Package placement maps a volume's logical stripes onto physical drives.
//
// A Layout answers one question for every (stripe, member) pair of a
// volume: which physical drive holds that chunk, and at which byte offset.
// The geometry (internal/raid) keeps deciding WHICH member of a stripe is
// data, P, or Q — left-symmetric rotation in member space — while the
// layout decides WHERE each member lives in drive space. The two layouts:
//
//   - Fixed: today's contiguous window. Member m of every stripe lives on
//     drive m, at DriveBase + stripe*ChunkSize. Rebuild of a failed drive
//     reads the same width-1 survivors for every stripe.
//   - Declustered: seeded permutation-based parity declustering (à la ZFS
//     dRAID). A volume of width W spreads its stripes over D > W cluster
//     drives; a failed drive holds only ~Stripes·W/D chunks and every
//     surviving drive contributes reads AND receives reconstructed writes
//     (many-to-many), so rebuild time shrinks ~1/D as the cluster grows.
//
// Both layouts place every chunk of one stripe at the SAME drive offset
// (StripeBase). Server-side reduce and reconstruction key their
// accumulators by absolute drive offset, so this invariant is what lets a
// declustered volume reuse the entire wire protocol unchanged.
package placement

// Slot names one chunk of a volume: stripe s, member m (role position in
// the stripe's geometry, 0..Width-1).
type Slot struct {
	Stripe int64
	Member int
}

// Move is a planned chunk migration: Slot's chunk relocates to drive To.
type Move struct {
	Stripe int64
	Member int
	To     int
}

// Layout maps (stripe, member) to (drive, offset).
type Layout interface {
	// Width is the stripe width (geometry members per stripe).
	Width() int
	// Drives is the number of physical drives the layout may address.
	Drives() int
	// Stripes is the volume's stripe count (fixed at creation).
	Stripes() int64
	// StripeBase is the absolute drive offset shared by every member chunk
	// of the stripe.
	StripeBase(stripe int64) int64
	// Drive returns the physical drive holding member m of the stripe.
	Drive(stripe int64, member int) int
	// Member returns which member of the stripe lives on the drive, or -1
	// if the stripe has no chunk there.
	Member(stripe int64, drive int) int
}

// Dynamic is the mutable extension the declustered layout implements:
// chunk-level relocation (rebuild onto distributed spare slots, rebalance
// onto added drives, eviction off removed drives).
type Dynamic interface {
	Layout
	// ClaimSpare picks an idle drive for the stripe's row — one holding no
	// chunk at this stripe's offset — excluding drives the caller rejects
	// (failed ones) and drives already removed. The slot is reserved until
	// Commit or Release, so concurrent migrations in the same row cannot
	// collide. Deterministic given identical layout state.
	ClaimSpare(stripe int64, exclude func(drive int) bool) (int, bool)
	// ClaimDrive reserves a specific drive for the stripe's row, returning
	// false when that drive already holds or is reserved for a chunk at
	// this offset.
	ClaimDrive(stripe int64, to int) bool
	// Commit relocates member m of the stripe to the drive (releasing any
	// reservation for it). All future Drive/Member answers reflect it.
	Commit(stripe int64, member, drive int)
	// Release cancels a reservation made by ClaimSpare/ClaimDrive.
	Release(stripe int64, drive int)
	// Reserved counts slots claimed but neither committed nor released: the
	// relocations in flight. Zero on an idle volume.
	Reserved() int
	// Slots lists every chunk currently placed on the drive, in stripe
	// order.
	Slots(drive int) []Slot
	// AddDrive grows the addressable drive set by one and returns the new
	// drive's index. The new drive starts empty; PlanAdd computes its fair
	// share of existing chunks.
	AddDrive() int
	// PlanAdd plans the rebalance onto a newly added drive: at most one
	// chunk per row moves there, chosen by seeded hash so the new drive
	// converges to ~Stripes·Width/Drives chunks.
	PlanAdd(drive int) []Move
	// SetRemoved marks a drive retired: ClaimSpare and PlanAdd never
	// target it again.
	SetRemoved(drive int, removed bool)
}

// Fixed is the classic contiguous-window layout: member m of every stripe
// on drive m, stripes packed front to back from the volume's base. It
// reproduces the pre-layout arithmetic bit for bit: StripeBase(s) =
// base + s*ChunkSize, Drive(s, m) = m.
type Fixed struct {
	base    int64
	chunk   int64
	width   int
	stripes int64
}

// NewFixed builds the contiguous layout for a volume occupying
// [base, base+extent) of drives 0..width-1.
func NewFixed(base, chunk int64, width int, extent int64) *Fixed {
	return &Fixed{base: base, chunk: chunk, width: width, stripes: extent / chunk}
}

func (f *Fixed) Width() int     { return f.width }
func (f *Fixed) Drives() int    { return f.width }
func (f *Fixed) Stripes() int64 { return f.stripes }

func (f *Fixed) StripeBase(stripe int64) int64 { return f.base + stripe*f.chunk }

func (f *Fixed) Drive(stripe int64, member int) int { return member }

func (f *Fixed) Member(stripe int64, drive int) int {
	if drive < 0 || drive >= f.width {
		return -1
	}
	return drive
}
