package placement

import "fmt"

// Declustered spreads a width-W volume over D > W cluster drives with a
// row-packed placement:
//
//	The volume's extent on every drive divides into ROWS of ChunkSize.
//	Each row packs spr = (D-1)/W whole stripes side by side: a seeded
//	Fisher–Yates permutation of the D drives assigns stripe k of the row
//	to permutation positions [k·W, (k+1)·W); the ≥1 positions past spr·W
//	are the row's distributed spare slots, idle until a rebuild or
//	rebalance relocates a chunk into them.
//
// Every chunk of a stripe therefore sits at the same absolute offset
// (base + row·ChunkSize) on W distinct drives — the same-offset invariant
// the fixed layout has — while consecutive stripes land on
// pseudo-randomly rotating drive subsets, so a failed drive intersects
// only ~Stripes·W/D stripes and its reconstruction reads and writes
// spread over the whole cluster.
//
// All post-creation relocation (rebuild onto spare slots, rebalance onto
// added drives, eviction off removed drives) is recorded as a committed
// override per (stripe, member); the seeded base placement itself is
// immutable, which keeps the layout reproducible from (seed, geometry)
// plus the override log.
type Declustered struct {
	base  int64
	chunk int64
	width int
	seed  int64

	// init is the drive count at creation: permutations cover [0, init).
	// drives grows past init via AddDrive; added drives receive chunks
	// only through committed overrides.
	init   int
	drives int

	rows    int64 // extent / chunk
	spr     int64 // stripes per row: (init-1)/width
	stripes int64 // rows * spr

	perms     map[int64][]int // row -> cached drive permutation
	overrides map[Slot]int    // committed relocations
	reserved  map[rowDrive]bool
	removed   map[int]bool
	rng       uint64 // seeds row permutations and plan hashes
}

type rowDrive struct {
	row   int64
	drive int
}

// NewDeclustered builds a declustered layout for a volume of the given
// stripe width occupying [base, base+extent) of drives 0..drives-1.
// drives must exceed width so every row keeps at least one spare slot.
func NewDeclustered(base, extent, chunk int64, width, drives int, seed int64) (*Declustered, error) {
	if width < 2 {
		return nil, fmt.Errorf("placement: declustered width %d < 2", width)
	}
	if drives <= width {
		return nil, fmt.Errorf("placement: declustered needs more drives (%d) than the stripe width (%d) for distributed spare slots", drives, width)
	}
	if chunk <= 0 || extent < chunk {
		return nil, fmt.Errorf("placement: extent %d below one chunk (%d)", extent, chunk)
	}
	d := &Declustered{
		base: base, chunk: chunk, width: width, seed: seed,
		init: drives, drives: drives,
		rows:      extent / chunk,
		spr:       int64(drives-1) / int64(width),
		perms:     make(map[int64][]int),
		overrides: make(map[Slot]int),
		reserved:  make(map[rowDrive]bool),
		removed:   make(map[int]bool),
		rng:       uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
	}
	d.stripes = d.rows * d.spr
	return d, nil
}

func (d *Declustered) Width() int     { return d.width }
func (d *Declustered) Drives() int    { return d.drives }
func (d *Declustered) Stripes() int64 { return d.stripes }

func (d *Declustered) StripeBase(stripe int64) int64 {
	return d.base + (stripe/d.spr)*d.chunk
}

// perm returns the row's seeded drive permutation, computing and caching
// it on first use.
func (d *Declustered) perm(row int64) []int {
	if p, ok := d.perms[row]; ok {
		return p
	}
	p := make([]int, d.init)
	for i := range p {
		p[i] = i
	}
	x := d.rng ^ splitmix(uint64(row)+1)
	for i := d.init - 1; i > 0; i-- {
		x = splitmix(x)
		j := int(x % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	d.perms[row] = p
	return p
}

func (d *Declustered) Drive(stripe int64, member int) int {
	if to, ok := d.overrides[Slot{stripe, member}]; ok {
		return to
	}
	row, k := stripe/d.spr, stripe%d.spr
	return d.perm(row)[k*int64(d.width)+int64(member)]
}

func (d *Declustered) Member(stripe int64, drive int) int {
	for m := 0; m < d.width; m++ {
		if d.Drive(stripe, m) == drive {
			return m
		}
	}
	return -1
}

// occupied reports whether the drive holds or is reserved for any chunk
// at the row's offset.
func (d *Declustered) occupied(row int64, drive int) bool {
	if d.reserved[rowDrive{row, drive}] {
		return true
	}
	for s := row * d.spr; s < (row+1)*d.spr; s++ {
		for m := 0; m < d.width; m++ {
			if d.Drive(s, m) == drive {
				return true
			}
		}
	}
	return false
}

func (d *Declustered) ClaimSpare(stripe int64, exclude func(drive int) bool) (int, bool) {
	row := stripe / d.spr
	var idle []int
	for dr := 0; dr < d.drives; dr++ {
		if d.removed[dr] || (exclude != nil && exclude(dr)) || d.occupied(row, dr) {
			continue
		}
		idle = append(idle, dr)
	}
	if len(idle) == 0 {
		return -1, false
	}
	pick := idle[splitmix(d.rng^splitmix(uint64(stripe)+3))%uint64(len(idle))]
	d.reserved[rowDrive{row, pick}] = true
	return pick, true
}

func (d *Declustered) ClaimDrive(stripe int64, to int) bool {
	row := stripe / d.spr
	if to < 0 || to >= d.drives || d.occupied(row, to) {
		return false
	}
	d.reserved[rowDrive{row, to}] = true
	return true
}

func (d *Declustered) Commit(stripe int64, member, drive int) {
	delete(d.reserved, rowDrive{stripe / d.spr, drive})
	if row, k := stripe/d.spr, stripe%d.spr; d.perm(row)[k*int64(d.width)+int64(member)] == drive {
		// Relocating back to the seeded position: the override is the
		// identity, so drop it instead of recording it.
		delete(d.overrides, Slot{stripe, member})
		return
	}
	d.overrides[Slot{stripe, member}] = drive
}

func (d *Declustered) Release(stripe int64, drive int) {
	delete(d.reserved, rowDrive{stripe / d.spr, drive})
}

func (d *Declustered) Reserved() int { return len(d.reserved) }

func (d *Declustered) Slots(drive int) []Slot {
	var out []Slot
	for s := int64(0); s < d.stripes; s++ {
		for m := 0; m < d.width; m++ {
			if d.Drive(s, m) == drive {
				out = append(out, Slot{s, m})
			}
		}
	}
	return out
}

func (d *Declustered) AddDrive() int {
	idx := d.drives
	d.drives++
	delete(d.removed, idx)
	return idx
}

func (d *Declustered) PlanAdd(drive int) []Move {
	used := d.spr * int64(d.width)
	var moves []Move
	for row := int64(0); row < d.rows; row++ {
		// One seeded draw per row over the grown drive count: landing on
		// one of the `used` occupied positions moves that chunk to the new
		// drive, so the new drive converges to rows·used/drives chunks —
		// its fair share.
		r := splitmix(d.rng ^ splitmix(uint64(row)+7) ^ splitmix(uint64(drive)+11)) % uint64(d.drives)
		if int64(r) >= used {
			continue
		}
		stripe := row*d.spr + int64(r)/int64(d.width)
		member := int(int64(r) % int64(d.width))
		if d.Drive(stripe, member) == drive {
			continue
		}
		moves = append(moves, Move{Stripe: stripe, Member: member, To: drive})
	}
	return moves
}

func (d *Declustered) SetRemoved(drive int, removed bool) {
	if removed {
		d.removed[drive] = true
	} else {
		delete(d.removed, drive)
	}
}

// splitmix is the SplitMix64 output function — the layout's only source
// of pseudo-randomness, so placements are a pure function of the seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
