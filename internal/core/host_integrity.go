package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"draid/internal/blockdev"
	"draid/internal/integrity"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/raid"
)

// This file holds the host's media-error recovery machinery: when a server
// answers a read with StatusMediaError (a drive URE, or a per-chunk checksum
// mismatch caught by verify-on-read), the affected sectors are treated as a
// per-chunk ERASURE — reconstructed through the stripe's surviving redundancy
// like a failed member, but without marking the (perfectly healthy) node
// failed. Recovered sectors are written back in place (repair-on-read), and
// ranges that exceed the parity budget are recorded as lost regions instead
// of being served as garbage.

// ---------------------------------------------------------------------------
// Lost regions.

// LostRegion is a virtual byte range sacrificed to a media double fault:
// unreadable sectors exceeded the stripe's parity budget, so the bytes are
// unrecoverable until something overwrites them. Reads overlapping a lost
// region fail with blockdev.ErrMediaError.
type LostRegion struct {
	Off, Len int64
}

// LostRegions returns the current lost regions in ascending virtual order.
func (h *HostController) LostRegions() []LostRegion {
	spans := h.lost.Spans()
	out := make([]LostRegion, len(spans))
	for i, s := range spans {
		out[i] = LostRegion{Off: s.Off, Len: s.Len}
	}
	return out
}

// LostRegionsEver counts every lost range ever recorded, monotonically: the
// delta across an operation tells its observer (the rebuilder, a scrubber
// pass) whether data was sacrificed on its watch, even if a later write
// already cleared the region.
func (h *HostController) LostRegionsEver() int64 { return h.lostEver }

// recordLost marks member's chunk-relative [lo,hi) of stripe as lost, if the
// member holds user data there (parity sectors carry no addressable bytes).
func (h *HostController) recordLost(stripe int64, member int, lo, hi int64) {
	if member < 0 || member >= h.geo.Width {
		return
	}
	kind, idx := h.geo.Role(stripe, member)
	if kind != raid.KindData {
		return
	}
	if lo < 0 {
		lo = 0
	}
	if hi > h.geo.ChunkSize {
		hi = h.geo.ChunkSize
	}
	if hi <= lo {
		return
	}
	v := stripe*h.geo.StripeDataSize() + int64(idx)*h.geo.ChunkSize + lo
	h.lost.Add(v, hi-lo)
	h.lostEver++
}

// recordShortfall reports whether err is a mediaShortfall — bytes given up to
// unreadable sectors, not a timeout or a plain member double fault — and if
// it names a specific member range, records that range lost.
func (h *HostController) recordShortfall(err error) bool {
	var sf *mediaShortfall
	if !errors.As(err, &sf) {
		return false
	}
	if sf.member >= 0 {
		h.recordLost(sf.stripe, sf.member, sf.off, sf.off+sf.n)
	}
	return true
}

// mediaShortfall reports that reconstructing a chunk range failed because
// unreadable sectors exceeded the stripe's parity budget. It matches both
// blockdev.ErrMediaError and blockdev.ErrDoubleFault under errors.Is.
type mediaShortfall struct {
	stripe int64
	member int   // member whose unreadable range broke the budget; -1 if none specific
	off, n int64 // chunk-relative unreadable range, valid when member >= 0
}

func (e *mediaShortfall) Error() string {
	if e.member < 0 {
		return fmt.Sprintf("core: stripe %d: media errors exceed parity budget", e.stripe)
	}
	return fmt.Sprintf("core: stripe %d: media errors exceed parity budget (member %d, [%d,+%d))",
		e.stripe, e.member, e.off, e.n)
}

func (e *mediaShortfall) Unwrap() []error {
	return []error{blockdev.ErrMediaError, blockdev.ErrDoubleFault}
}

// ---------------------------------------------------------------------------
// Read-path recovery continuations (installed as stripeOp.onMediaErr hooks).

// mediaRecoverExtent serves a normal read whose target reported unreadable
// sectors: reconstruct the extent through the stripe's redundancy, hand the
// bytes to the assembler, and schedule an in-place repair of the bad sectors
// decoupled from the user read.
func (h *HostController) mediaRecoverExtent(e raid.Extent, member int, asm *assembler, fail *error, done func()) {
	h.gatherSolveRange(e.Stripe, e.Off, e.Off+e.Len, map[int]bool{member: true},
		func(got, solved map[int]parity.Buffer, err error) {
			if err != nil {
				if h.recordShortfall(err) {
					h.recordLost(e.Stripe, member, e.Off, e.Off+e.Len)
				}
				*fail = fmt.Errorf("core: stripe %d read: %w", e.Stripe, err)
				done()
				return
			}
			asm.put(e.VOff, solved[member])
			h.repairChunkRange(e.Stripe, member, e.Off, e.Off+e.Len, nil)
			done()
		})
}

// ---------------------------------------------------------------------------
// Fallback-write recovery: reconstructing pre-operation content through the
// write hole.

// fallbackRecoverOld rebuilds every data chunk's pre-operation content of
// stripe over the chunk-relative range [uLo, uHi) for the host fallback
// writer, after one of its phase-1 reads reported unreadable sectors. On
// success cb receives one buffer per data-chunk index; ranges past the
// parity budget come back zero-filled and recorded as lost regions, never
// guessed.
//
// The subtlety is the write hole. The fallback runs after an aborted
// partial write, whose data bdevs may already have committed their new
// content — while parity provably has not moved (the reducer never
// collected every contribution, so it never wrote back). Solving the bad
// member through parity with the writers' stored bytes in the survivor set
// would mix old parity with new data and fabricate garbage — and worse,
// repair-on-read would then persist that garbage under valid checksums. So
// within each segment, every writer extent overlapping it is treated as one
// more erasure: the solver only ever sees provably pre-operation content
// (clean chunks and parity), and returns the writers' old bytes alongside
// the bad member's. A writer's solved old content equals its stored bytes
// outside its extent, and inside the extent the caller overlays the new
// data anyway, so the answer is correct whether or not the aborted write
// landed.
func (h *HostController) fallbackRecoverOld(stripe int64, exts []raid.Extent, uLo, uHi int64, bad map[int]bool, cb func(old []parity.Buffer, err error)) {
	k := h.geo.DataChunks()
	n := uHi - uLo
	out := make([]parity.Buffer, k)
	for c := range out {
		out[c] = parity.Alloc(int(n))
	}

	// Segment [uLo, uHi) at writer-extent boundaries: within one segment the
	// erasure set is uniform.
	bounds := []int64{uLo, uHi}
	for _, e := range exts {
		for _, b := range []int64{e.Off, e.Off + e.Len} {
			if b > uLo && b < uHi {
				bounds = append(bounds, b)
			}
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })

	seg := 0
	var step func()
	step = func() {
		for seg < len(bounds)-1 && bounds[seg] == bounds[seg+1] {
			seg++
		}
		if seg >= len(bounds)-1 {
			cb(out, nil)
			return
		}
		sLo, sHi := bounds[seg], bounds[seg+1]
		seg++
		skip := make(map[int]bool, len(bad)+len(exts))
		for m := range bad {
			skip[m] = true
		}
		for _, e := range exts {
			if e.Off < sHi && e.Off+e.Len > sLo {
				skip[h.geo.DataDrive(stripe, e.Chunk)] = true
			}
		}
		h.gatherSolveRange(stripe, sLo, sHi, skip, func(got, solved map[int]parity.Buffer, err error) {
			if err != nil {
				var sf *mediaShortfall
				if !errors.As(err, &sf) {
					cb(nil, err)
					return
				}
				// Erasures exceed the parity budget in this segment — the
				// write-hole × URE corner. Salvage what is still readable and
				// record the rest lost instead of wedging the write.
				h.salvageSegment(stripe, sLo, sHi, out, uLo, 0, step, cb)
				return
			}
			for c := 0; c < k; c++ {
				d := h.geo.DataDrive(stripe, c)
				b, ok := got[d]
				if !ok {
					b, ok = solved[d]
				}
				if ok && !b.Elided() {
					out[c].CopyAt(int(sLo-uLo), b)
				}
			}
			step()
		})
	}
	step()
}

// salvageSegment handles a fallbackRecoverOld segment whose erasures exceed
// the parity budget: each data member's stored bytes are read directly —
// whatever is on the drive is, by definition, the content the recomputed
// parity must encode — degrading to protection-block granularity around
// unreadable sectors, which are zero-filled and recorded as lost regions.
func (h *HostController) salvageSegment(stripe, sLo, sHi int64, out []parity.Buffer, uLo int64, c int, next func(), cb func([]parity.Buffer, error)) {
	if c >= h.geo.DataChunks() {
		next()
		return
	}
	member := h.geo.DataDrive(stripe, c)
	if h.memberFailed(stripe, member) {
		// No drive and no trustworthy parity: the bytes are gone.
		h.recordLost(stripe, member, sLo, sHi)
		h.salvageSegment(stripe, sLo, sHi, out, uLo, c+1, next, cb)
		return
	}
	h.salvageBlocks(stripe, member, sLo, sHi, out[c], uLo, func(err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		h.salvageSegment(stripe, sLo, sHi, out, uLo, c+1, next, cb)
	})
}

// salvageBlocks copies member's readable stored bytes over [sLo, sHi) into
// dst (whose origin is chunk-relative uLo), one protection block at a time;
// unreadable blocks stay zero and are recorded lost.
func (h *HostController) salvageBlocks(stripe int64, member int, sLo, sHi int64, dst parity.Buffer, uLo int64, cbDone func(error)) {
	pos := sLo
	var step func()
	step = func() {
		if pos >= sHi {
			cbDone(nil)
			return
		}
		pLo := pos
		pHi := pLo - pLo%integrity.DefaultBlockSize + integrity.DefaultBlockSize
		if pHi > sHi {
			pHi = sHi
		}
		pos = pHi
		h.readMembers("salvage-read", stripe, pLo, pHi, []int{member}, false,
			func(got map[int]parity.Buffer) {
				dst.CopyAt(int(pLo-uLo), got[member])
				step()
			},
			func(int, nvmeof.Command) {
				h.recordLost(stripe, member, pLo, pHi)
				step()
			},
			func([]NodeID) {
				cbDone(fmt.Errorf("core: stripe %d salvage read: %w", stripe, blockdev.ErrTimeout))
			})
	}
	step()
}

// repairChunkRange repairs member's chunk-relative [lo,hi) of stripe in
// place: under the stripe write lock it re-reads the range (a racing
// foreground write may already have replaced the bad sectors — writes clear
// media errors), and only if the media error persists reconstructs the
// content from the stripe's redundancy and writes it back. cb (optional)
// observes the outcome; callers on the read path fire-and-forget with nil.
func (h *HostController) repairChunkRange(stripe int64, member int, lo, hi int64, cb func(error)) {
	if cb == nil {
		cb = func(error) {}
	}
	// Align outward to protection-block boundaries: a sub-block repair write
	// could not refresh its edge blocks' checksums (the server refuses to
	// absorb slack bytes it cannot verify), so rewrite whole blocks with
	// reconstructed content and heal them for good.
	lo -= lo % integrity.DefaultBlockSize
	if rem := hi % integrity.DefaultBlockSize; rem != 0 {
		hi += integrity.DefaultBlockSize - rem
	}
	if hi > h.geo.ChunkSize {
		hi = h.geo.ChunkSize
	}
	h.acquireStripe(stripe, func() {
		release := func(err error) {
			h.releaseStripe(stripe)
			cb(err)
		}
		h.readMembers("repair-verify", stripe, lo, hi, []int{member}, false,
			func(map[int]parity.Buffer) { release(nil) }, // reads clean now; nothing to repair
			func(int, nvmeof.Command) {
				h.gatherSolveRange(stripe, lo, hi, map[int]bool{member: true},
					func(got, solved map[int]parity.Buffer, err error) {
						if err != nil {
							h.recordShortfall(err)
							release(err)
							return
						}
						buf, ok := solved[member]
						if !ok {
							release(nil)
							return
						}
						h.writeMembers("repair-write", stripe, []memberWrite{{member, lo, buf}},
							func() {
								h.stats.RepairedRanges++
								release(nil)
							},
							func([]NodeID) {
								release(fmt.Errorf("core: stripe %d repair write: %w", stripe, blockdev.ErrTimeout))
							})
					})
			},
			func([]NodeID) { release(fmt.Errorf("core: stripe %d repair verify: %w", stripe, blockdev.ErrTimeout)) })
	})
}

// ---------------------------------------------------------------------------
// Rebuild hardening.

// rebuildRecoverChunk re-derives member's whole chunk of stripe after a
// rebuild reconstruction read hit unreadable sectors on a survivor — the
// URE-during-rebuild hazard. The gather machinery reconstructs through
// whatever redundancy survives (on RAID-6 a URE during a single-failure
// rebuild is absorbed by Q); where the parity budget is truly exceeded
// (RAID-5), the unreadable hole is zero-filled in the rebuilt chunk, the
// affected user bytes are recorded as lost regions, and recovery continues
// around the hole so the rebuild never wedges or writes garbage silently.
func (h *HostController) rebuildRecoverChunk(stripe int64, member int, cb func(parity.Buffer, error)) {
	cs := h.geo.ChunkSize
	out := parity.Alloc(int(cs))
	elided := false
	type rng struct{ lo, hi int64 }
	work := []rng{{0, cs}}
	var step func()
	step = func() {
		if len(work) == 0 {
			if elided {
				cb(parity.Sized(int(cs)), nil)
				return
			}
			cb(out, nil)
			return
		}
		r := work[0]
		work = work[1:]
		h.gatherSolveRange(stripe, r.lo, r.hi, nil, func(got, solved map[int]parity.Buffer, err error) {
			if err != nil {
				var sf *mediaShortfall
				if !errors.As(err, &sf) || sf.member < 0 {
					cb(parity.Buffer{}, err)
					return
				}
				// Unrecoverable hole: both the rebuilt chunk's bytes and the
				// reporting survivor's own bytes there are gone. Record them,
				// zero-fill, and keep recovering around the hole.
				badLo, badHi := sf.off, sf.off+sf.n
				if badLo < r.lo {
					badLo = r.lo
				}
				if badHi > r.hi {
					badHi = r.hi
				}
				if badHi <= badLo {
					badLo, badHi = r.lo, r.hi
				}
				h.recordLost(stripe, member, badLo, badHi)
				h.recordLost(stripe, sf.member, sf.off, sf.off+sf.n)
				if badLo > r.lo {
					work = append(work, rng{r.lo, badLo})
				}
				if badHi < r.hi {
					work = append(work, rng{badHi, r.hi})
				}
				step()
				return
			}
			b, ok := solved[member]
			if !ok {
				b = got[member]
			}
			switch {
			case b.Elided():
				elided = true
			case b.Len() > 0:
				out.CopyAt(int(r.lo), b)
			}
			step()
		})
	}
	step()
}

// ---------------------------------------------------------------------------
// Scrubbing.

// ScrubResult reports one stripe's scrub outcome.
type ScrubResult struct {
	Stripe int64
	// Skipped marks a stripe with a failed member: redundancy is already
	// spoken for, so coherence cannot be judged until the rebuild completes.
	Skipped bool
	// MediaRepairs counts chunks rewritten after their reads reported media
	// errors or checksum mismatches (the latent errors scrub exists to find).
	MediaRepairs int
	// ParityRepairs counts parity chunks rewritten because they disagreed
	// with parity recomputed from the stripe's data.
	ParityRepairs int
}

// ScrubStripe verifies one stripe end to end under the stripe write lock:
// every chunk is read (passing through server-side verify-on-read), chunks
// with latent media errors are reconstructed and rewritten in place, and
// parity is recomputed from the data and compared against what is stored,
// rewriting any incoherent parity chunk.
func (h *HostController) ScrubStripe(stripe int64, cb func(ScrubResult, error)) {
	res := ScrubResult{Stripe: stripe}
	if h.crashed {
		return
	}
	if h.failedIn(stripe) > 0 {
		res.Skipped = true
		h.rt.Defer(func() { cb(res, nil) })
		return
	}
	h.repairStep(stripe, func(finish func(error)) {
		cs := h.geo.ChunkSize
		h.gatherSolveRange(stripe, 0, cs, nil, func(got, solved map[int]parity.Buffer, err error) {
			if err != nil {
				h.recordShortfall(err)
				finish(err)
				return
			}
			// Chunks the gather had to solve are exactly the latent errors:
			// rewrite them. Then check parity coherence over the full data.
			var fixes []memberWrite
			for m := 0; m < h.geo.Width; m++ {
				if b, ok := solved[m]; ok {
					fixes = append(fixes, memberWrite{m, 0, b})
				}
			}
			media := len(fixes)
			k := h.geo.DataChunks()
			data := make([]parity.Buffer, k)
			elided := false
			for c := 0; c < k; c++ {
				d := h.geo.DataDrive(stripe, c)
				b, ok := got[d]
				if !ok {
					b = solved[d]
				}
				if b.Elided() {
					elided = true
				}
				data[c] = b
			}
			raid6 := h.geo.Level == raid.Raid6
			h.cores.Exec(h.parityCost(cs, raid6), func() {
				if !elided {
					// Stored parity that disagrees with parity recomputed
					// from the data is rewritten too.
					for _, w := range h.parityWrites(nil, stripe, 0, data, true, raid6) {
						if b, ok := got[w.member]; ok && !b.Elided() && !bytes.Equal(b.Data(), w.buf.Data()) {
							fixes = append(fixes, w)
						}
					}
				}
				h.stats.ScrubbedStripes++
				if len(fixes) == 0 {
					finish(nil)
					return
				}
				h.writeMembers("scrub-repair", stripe, fixes,
					func() {
						res.MediaRepairs += media
						res.ParityRepairs += len(fixes) - media
						h.stats.RepairedRanges += int64(len(fixes))
						finish(nil)
					},
					func([]NodeID) {
						finish(fmt.Errorf("core: stripe %d scrub repair: %w", stripe, blockdev.ErrTimeout))
					})
			})
		})
	}, nil, func(err error) { cb(res, err) })
}
