// Package raid implements parity-RAID stripe geometry: rotating layouts for
// RAID-5 (left-symmetric, the Linux MD default) and RAID-6 (P followed by
// Q), request-to-stripe splitting, and the write-mode decision
// (read-modify-write vs reconstruct-write vs full-stripe write).
//
// Terminology follows the paper: an array of Width drives stores, per
// stripe, k = Width-ParityCount data chunks plus one parity chunk P (and Q
// for RAID-6), each ChunkSize bytes. Chunk placement rotates per stripe so
// parity I/O spreads evenly across drives.
package raid

import "fmt"

// Level selects the RAID level.
type Level int

// Supported parity-RAID levels.
const (
	Raid5 Level = 5
	Raid6 Level = 6
)

// String returns "RAID-5" or "RAID-6".
func (l Level) String() string { return fmt.Sprintf("RAID-%d", int(l)) }

// ParityCount returns the number of parity chunks per stripe.
func (l Level) ParityCount() int {
	switch l {
	case Raid5:
		return 1
	case Raid6:
		return 2
	}
	panic(fmt.Sprintf("raid: unsupported level %d", int(l)))
}

// Geometry fixes an array's shape.
type Geometry struct {
	Level     Level
	Width     int   // total member drives (data + parity)
	ChunkSize int64 // bytes per chunk
}

// Validate checks the geometry and returns a descriptive error.
func (g Geometry) Validate() error {
	pc := g.Level.ParityCount()
	if g.Width < pc+2 {
		return fmt.Errorf("raid: width %d too small for %v (need ≥ %d)", g.Width, g.Level, pc+2)
	}
	if g.ChunkSize <= 0 {
		return fmt.Errorf("raid: chunk size %d must be positive", g.ChunkSize)
	}
	return nil
}

// DataChunks returns k, the data chunks per stripe.
func (g Geometry) DataChunks() int { return g.Width - g.Level.ParityCount() }

// StripeDataSize returns k·ChunkSize, the user bytes per stripe.
func (g Geometry) StripeDataSize() int64 { return int64(g.DataChunks()) * g.ChunkSize }

// PDrive returns the member-drive index holding stripe's P chunk. Parity
// rotates right-to-left per stripe (left-symmetric).
func (g Geometry) PDrive(stripe int64) int {
	return (g.Width - 1) - int(stripe%int64(g.Width))
}

// QDrive returns the drive holding stripe's Q chunk (RAID-6 only).
func (g Geometry) QDrive(stripe int64) int {
	if g.Level != Raid6 {
		panic("raid: QDrive on " + g.Level.String())
	}
	return (g.PDrive(stripe) + 1) % g.Width
}

// DataDrive returns the drive holding data chunk `chunk` (0..k-1) of stripe.
// Data chunks follow the parity chunk(s) and wrap (left-symmetric).
func (g Geometry) DataDrive(stripe int64, chunk int) int {
	if chunk < 0 || chunk >= g.DataChunks() {
		panic(fmt.Sprintf("raid: data chunk %d out of range [0,%d)", chunk, g.DataChunks()))
	}
	return (g.PDrive(stripe) + g.Level.ParityCount() + chunk) % g.Width
}

// ChunkKind classifies a drive's role within one stripe.
type ChunkKind int

// Roles of a member drive within a stripe.
const (
	KindData ChunkKind = iota
	KindP
	KindQ
)

// Role returns drive's role in stripe and, for data, the data-chunk index.
func (g Geometry) Role(stripe int64, drive int) (ChunkKind, int) {
	if drive < 0 || drive >= g.Width {
		panic(fmt.Sprintf("raid: drive %d out of range [0,%d)", drive, g.Width))
	}
	p := g.PDrive(stripe)
	if drive == p {
		return KindP, -1
	}
	if g.Level == Raid6 && drive == (p+1)%g.Width {
		return KindQ, -1
	}
	idx := (drive - p - g.Level.ParityCount() + 2*g.Width) % g.Width
	return KindData, idx
}

// DriveOffset returns the byte offset within each member drive at which
// stripe's chunks live.
func (g Geometry) DriveOffset(stripe int64) int64 { return stripe * g.ChunkSize }

// VirtualSize returns the virtual device size for a given per-drive capacity.
func (g Geometry) VirtualSize(driveCapacity int64) int64 {
	stripes := driveCapacity / g.ChunkSize
	return stripes * g.StripeDataSize()
}

// Extent is the intersection of a user request with one data chunk.
type Extent struct {
	Stripe int64 // stripe number
	Chunk  int   // data-chunk index within the stripe (0..k-1)
	Off    int64 // offset within the chunk
	Len    int64 // bytes
	VOff   int64 // offset within the user's virtual request space
}

// Split decomposes the virtual-device range [off, off+length) into per-chunk
// extents, ordered by virtual offset.
func (g Geometry) Split(off, length int64) []Extent { return g.AppendSplit(nil, off, length) }

// AppendSplit is Split appending to out, so a caller that keeps its extents
// in a reused slice allocates nothing. Offset order means each stripe's
// extents form one contiguous run (StripeRun).
func (g Geometry) AppendSplit(out []Extent, off, length int64) []Extent {
	if off < 0 || length < 0 {
		panic(fmt.Sprintf("raid: negative range (%d,%d)", off, length))
	}
	sds := g.StripeDataSize()
	for pos, end := off, off+length; pos < end; {
		inStripe := pos % sds
		chunkOff := inStripe % g.ChunkSize
		n := min(g.ChunkSize-chunkOff, end-pos)
		out = append(out, Extent{
			Stripe: pos / sds, Chunk: int(inStripe / g.ChunkSize), Off: chunkOff, Len: n, VOff: pos - off,
		})
		pos += n
	}
	return out
}

// StripeRun returns the run of exts that lies in exts[0]'s stripe, capped so
// that appending to it cannot overwrite the next run. exts must be in offset
// order, as Split returns them.
func StripeRun(exts []Extent) []Extent {
	n := 1
	for n < len(exts) && exts[n].Stripe == exts[0].Stripe {
		n++
	}
	return exts[:n:n]
}

// UnionRange returns the chunk-relative union [lo,hi) of one stripe's
// extents — the byte positions where a write changes parity.
func UnionRange(exts []Extent) (lo, hi int64) {
	lo, hi = exts[0].Off, exts[0].Off+exts[0].Len
	for _, e := range exts[1:] {
		lo, hi = min(lo, e.Off), max(hi, e.Off+e.Len)
	}
	return lo, hi
}

// WriteMode selects how a partial-or-full stripe write is executed.
type WriteMode int

// Write modes, in increasing stripe coverage.
const (
	// ModeRMW reads the old contents of the written chunks and parity, and
	// applies the delta (Figure 2 of the paper).
	ModeRMW WriteMode = iota
	// ModeRCW (reconstruct write) reads the chunks NOT being written and
	// recomputes parity from the full stripe.
	ModeRCW
	// ModeFull writes every data chunk; parity is computed from the new
	// data with no reads at all.
	ModeFull
)

// String names the mode.
func (m WriteMode) String() string {
	switch m {
	case ModeRMW:
		return "read-modify-write"
	case ModeRCW:
		return "reconstruct-write"
	case ModeFull:
		return "full-stripe-write"
	}
	return fmt.Sprintf("WriteMode(%d)", int(m))
}

// DecideWriteMode picks the cheapest mode for a write touching the given
// extents of ONE stripe, minimizing pre-reads: RMW pre-reads each written
// chunk plus each parity chunk; RCW pre-reads each untouched chunk (plus
// nothing for partially covered chunks beyond their untouched remainder,
// which rides along in the same drive I/O). Ties go to RCW, which matches
// the paper's reported mode boundaries (k=7: RMW strictly below 1536 KB).
func (g Geometry) DecideWriteMode(exts []Extent) WriteMode {
	if len(exts) == 0 {
		panic("raid: DecideWriteMode of no extents")
	}
	stripe := exts[0].Stripe
	touched := make(map[int]bool)
	covered := int64(0)
	for _, e := range exts {
		if e.Stripe != stripe {
			panic("raid: DecideWriteMode across stripes")
		}
		touched[e.Chunk] = true
		covered += e.Len
	}
	k := g.DataChunks()
	if covered == g.StripeDataSize() {
		return ModeFull
	}
	w := len(touched)
	rmwReads := w + g.Level.ParityCount()
	rcwReads := k - fullyCoveredChunks(g, exts)
	if rmwReads < rcwReads {
		return ModeRMW
	}
	return ModeRCW
}

func fullyCoveredChunks(g Geometry, exts []Extent) int {
	perChunk := make(map[int]int64)
	for _, e := range exts {
		perChunk[e.Chunk] += e.Len
	}
	full := 0
	for _, n := range perChunk {
		if n == g.ChunkSize {
			full++
		}
	}
	return full
}
