package core

import (
	"fmt"

	"draid/internal/backend"
	"draid/internal/blockdev"
	"draid/internal/gf256"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/placement"
	"draid/internal/raid"
)

// WriteMemberChunk writes a full chunk image directly to the drive holding
// stripe member m — the delivery half of rebuilding onto a replacement
// drive.
func (h *HostController) WriteMemberChunk(stripe int64, member int, b parity.Buffer, cb func(error)) {
	h.writeChunkToNode(stripe, h.nodeOf(h.layout.Drive(stripe, member)), b, cb)
}

// writeChunkToNode writes a full chunk image for stripe to an arbitrary
// endpoint — a member's drive or a hot spare being rebuilt onto.
func (h *HostController) writeChunkToNode(stripe int64, to NodeID, b parity.Buffer, cb func(error)) {
	if int64(b.Len()) != h.geo.ChunkSize {
		h.rt.Defer(func() { cb(fmt.Errorf("core: chunk image is %d bytes, want %d", b.Len(), h.geo.ChunkSize)) })
		return
	}
	op := h.newStripeOp("rebuild-write", stripe, 1, []NodeID{to},
		func() { cb(nil) },
		func([]NodeID) { cb(fmt.Errorf("core: stripe %d rebuild write: %w", stripe, blockdev.ErrTimeout)) },
	)
	h.send(op, to, nvmeof.Command{
		Opcode: nvmeof.OpWrite,
		Offset: h.driveOff(stripe), Length: h.geo.ChunkSize,
	}, b)
}

// ---------------------------------------------------------------------------
// Hot-spare rebuild bookkeeping. The rebuild manager (internal/repair) drives
// stripes through RebuildStripe in order; the controller routes foreground
// I/O below the advancing frontier to the spare, so the array sheds the
// degraded path incrementally instead of all at once.

// StartRebuild registers an in-progress rebuild of a drive onto endpoint
// dest (a hot spare). The drive must currently be failed.
func (h *HostController) StartRebuild(member int, dest NodeID) {
	if !h.failed[member] {
		panic(fmt.Sprintf("core: rebuilding healthy member %d", member))
	}
	if _, dup := h.rebuilds[member]; dup {
		panic(fmt.Sprintf("core: member %d already rebuilding", member))
	}
	h.rebuilds[member] = &rebuildState{dest: dest}
}

// Rebuilding returns the rebuild destination and frontier for member; ok is
// false when no rebuild is in progress.
func (h *HostController) Rebuilding(member int) (dest NodeID, frontier int64, ok bool) {
	r, ok := h.rebuilds[member]
	if !ok {
		return 0, 0, false
	}
	return r.dest, r.frontier, true
}

// RebuildStripe reconstructs member's chunk of one stripe and writes it to
// the rebuild destination, then advances the frontier. The stripe write lock
// is held across reconstruct+write, so no foreground write can interleave
// and leave the rebuilt chunk stale.
func (h *HostController) RebuildStripe(stripe int64, member int, cb func(error)) {
	r, ok := h.rebuilds[member]
	if !ok {
		h.rt.Defer(func() { cb(fmt.Errorf("core: member %d has no rebuild in progress", member)) })
		return
	}
	mem := h.layout.Member(stripe, member)
	if mem < 0 {
		// The stripe holds no chunk on this drive (declustered layouts only)
		// — nothing to rebuild; just advance the frontier.
		h.rt.Defer(func() {
			if r.frontier == stripe {
				r.frontier = stripe + 1
			}
			cb(nil)
		})
		return
	}
	h.acquireStripe(stripe, func() {
		h.ReconstructStripeChunk(stripe, mem, func(b parity.Buffer, err error) {
			if err != nil {
				h.releaseStripe(stripe)
				cb(err)
				return
			}
			h.writeChunkToNode(stripe, r.dest, b, func(err error) {
				if err == nil {
					h.stats.RebuiltStripes++
					if r.frontier == stripe {
						r.frontier = stripe + 1
					}
				}
				h.releaseStripe(stripe)
				cb(err)
			})
		})
	})
}

// FinishRebuild completes member's rebuild: the spare becomes the member's
// endpoint and the member returns to full service.
func (h *HostController) FinishRebuild(member int) {
	r, ok := h.rebuilds[member]
	if !ok {
		panic(fmt.Sprintf("core: member %d has no rebuild to finish", member))
	}
	h.memberNode[member] = r.dest
	delete(h.rebuilds, member)
	delete(h.failed, member)
}

// AbortRebuild abandons member's rebuild; the member stays failed and the
// partially written spare content is discarded.
func (h *HostController) AbortRebuild(member int) { delete(h.rebuilds, member) }

// ReconstructStripeChunk rebuilds the full chunk held by `member` in
// `stripe` using the disaggregated reconstruction machinery (§6) and returns
// it to the host — the unit of work for drive rebuild (Figure 17a). The
// member must currently be marked failed. Works for data, P, and Q chunks:
//
//   - data chunk: XOR-reduce the surviving data chunks and P; if P is also
//     lost (RAID-6), GF-reduce the survivors and Q and unscale on the host;
//   - P chunk:    XOR-reduce all data chunks;
//   - Q chunk:    GF-reduce all data chunks with their g^i coefficients.
func (h *HostController) ReconstructStripeChunk(stripe int64, member int, cb func(parity.Buffer, error)) {
	if !h.memberFailed(stripe, member) {
		h.rt.Defer(func() { cb(parity.Buffer{}, fmt.Errorf("core: member %d is not failed", member)) })
		return
	}
	h.stats.Reconstructions++
	kind, lostIdx := h.geo.Role(stripe, member)
	base := h.driveOff(stripe)
	cs := h.geo.ChunkSize

	type part struct {
		target  NodeID
		dataIdx uint16 // GF coefficient for this contribution
	}
	var parts []part
	addData := func(scale bool) {
		for c := 0; c < h.geo.DataChunks(); c++ {
			d := h.geo.DataDrive(stripe, c)
			if d == member || h.memberFailed(stripe, d) {
				continue
			}
			idx := NoScale
			if scale {
				idx = uint16(c)
			}
			parts = append(parts, part{target: h.nodeAt(stripe, d), dataIdx: idx})
		}
	}
	// unscale post-processes the reducer's result on the host (the Q-based
	// single-data recovery needs a division by g^lost).
	unscale := byte(1)
	switch kind {
	case raid.KindData:
		pDrive := h.geo.PDrive(stripe)
		switch {
		case !h.memberFailed(stripe, pDrive):
			parts = append(parts, part{target: h.nodeAt(stripe, pDrive), dataIdx: NoScale})
			addData(false)
		case h.geo.Level == raid.Raid6 && !h.memberFailed(stripe, h.geo.QDrive(stripe)):
			// P lost too: D_lost = (Q ⊕ Σ g^i·D_i) / g^lost.
			parts = append(parts, part{target: h.nodeAt(stripe, h.geo.QDrive(stripe)), dataIdx: NoScale})
			addData(true)
			unscale = gf256.Inv(parity.QCoeff(lostIdx))
		default:
			h.rt.Defer(func() { cb(parity.Buffer{}, blockdev.ErrIO) })
			return
		}
	case raid.KindP:
		addData(false)
	case raid.KindQ:
		addData(true)
	}
	if len(parts) < h.geo.DataChunks() {
		// A second member of this stripe is failed alongside the one being
		// rebuilt (RAID-6 double fault). The single reduce tree cannot express
		// that solve — it needs P and Q together with per-survivor
		// coefficients outside the g^i form — so gather the survivors to the
		// host and solve both erasures there: rebuild-through-Q. Stripes past
		// the parity budget fail inside the recovery.
		if h.geo.Level == raid.Raid6 {
			h.rebuildRecoverChunk(stripe, member, cb)
			return
		}
		h.rt.Defer(func() { cb(parity.Buffer{}, blockdev.ErrIO) })
		return
	}

	candidates := make([]int, len(parts))
	for i, p := range parts {
		candidates[i] = int(p.target)
	}
	reducer := NodeID(h.cfg.Selector.Pick(candidates, cs*int64(len(parts))))

	var result parity.Buffer
	watch := make([]NodeID, len(parts))
	for i, p := range parts {
		watch[i] = p.target
	}
	op := h.newStripeOp("rebuild-reconstruct", stripe, 1, watch,
		func() {
			if unscale != 1 {
				h.cores.Exec(h.cfg.Costs.Gf(result.Len()), func() {
					// result is the reducer's accumulator, owned by us now;
					// unscale it in place rather than into a fresh buffer.
					cb(parity.Scale(result, unscale), nil)
				})
				return
			}
			cb(result, nil)
		},
		func(missing []NodeID) {
			cb(parity.Buffer{}, fmt.Errorf("core: stripe %d reconstruction: %w", stripe, blockdev.ErrTimeout))
		},
	)
	op.onPayload = func(from NodeID, _ nvmeof.Command, b parity.Buffer) { result = b.Disown() }
	op.onMediaErr = func(_ int, _ nvmeof.Command) {
		// A survivor hit unreadable sectors mid-rebuild: switch to the
		// media-hardened recovery, which solves through remaining redundancy
		// and degrades to lost-region accounting only past the parity budget.
		h.rebuildRecoverChunk(stripe, member, cb)
	}

	for _, p := range parts {
		cmd := nvmeof.Command{
			Opcode:  nvmeof.OpReconstruction,
			Subtype: nvmeof.SubNoRead,
			Offset:  base, Length: cs,
			FwdOffset: base, FwdLength: cs,
			NextDest: uint16(reducer),
			DataIdx:  p.dataIdx,
		}
		if p.target == reducer {
			cmd.WaitNum = uint16(len(parts))
		}
		h.send(op, p.target, cmd, parity.Buffer{})
	}
}

// ---------------------------------------------------------------------------
// Declustered (many-to-many) rebuild and chunk migration. A declustered
// layout has no single spare endpoint: each chunk of the failed drive is
// reconstructed and relocated into an idle slot of its own row —
// distributed spare space — and the new placement is committed to the
// layout. Once committed, the layout no longer maps the stripe's member
// to the failed drive, so foreground I/O sheds the degraded path chunk by
// chunk, and both the reads and the writes of the rebuild spread over the
// whole cluster.

// PlacementSlots lists the chunks currently placed on a drive, in stripe
// order — the work list for a declustered rebuild or drive removal. Nil
// for non-declustered layouts.
func (h *HostController) PlacementSlots(drive int) []placement.Slot {
	if h.dyn == nil {
		return nil
	}
	return h.dyn.Slots(drive)
}

// readChunk reads the full current chunk image of stripe member m from its
// healthy drive.
func (h *HostController) readChunk(stripe int64, member int, cb func(parity.Buffer, error)) {
	target := h.nodeAt(stripe, member)
	var result parity.Buffer
	op := h.newStripeOp("migrate-read", stripe, 1, []NodeID{target},
		func() { cb(result, nil) },
		func([]NodeID) {
			cb(parity.Buffer{}, fmt.Errorf("core: stripe %d migrate read: %w", stripe, blockdev.ErrTimeout))
		},
	)
	op.onPayload = func(_ NodeID, _ nvmeof.Command, b parity.Buffer) { result = b.Disown() }
	h.send(op, target, nvmeof.Command{
		Opcode: nvmeof.OpRead,
		Offset: h.driveOff(stripe), Length: h.geo.ChunkSize,
	}, parity.Buffer{})
}

// MigrateStripeChunk relocates stripe member m to physical drive `to`,
// which must already be reserved in the layout (ClaimSpare/ClaimDrive or a
// PlanAdd move). The whole relocation runs under the stripe write lock, so
// no foreground write can interleave between the chunk read (or
// reconstruction, when the source drive is failed) and the write+commit —
// the same discipline destage and frontier rebuild use. On success the new
// placement is committed; on failure the reservation is released and the
// chunk stays where it was.
func (h *HostController) MigrateStripeChunk(stripe int64, member, to int, cb func(error)) {
	if h.dyn == nil {
		h.rt.Defer(func() { cb(fmt.Errorf("core: layout does not support migration: %w", backend.ErrUnsupported)) })
		return
	}
	h.acquireStripe(stripe, func() {
		done := func(err error) {
			if err != nil {
				h.dyn.Release(stripe, to)
			}
			h.releaseStripe(stripe)
			cb(err)
		}
		deliver := func(b parity.Buffer, err error) {
			if err != nil {
				done(err)
				return
			}
			h.writeChunkToNode(stripe, h.nodeOf(to), b, func(err error) {
				if err == nil {
					h.dyn.Commit(stripe, member, to)
					h.stats.RebuiltStripes++
				}
				done(err)
			})
		}
		if h.memberFailed(stripe, member) {
			h.ReconstructStripeChunk(stripe, member, deliver)
		} else {
			h.readChunk(stripe, member, deliver)
		}
	})
}

// RebuildSlot rebuilds one chunk of a failed drive into an idle slot of
// its row: the declustered unit of rebuild work. A stripe whose chunk was
// already relocated (by a racing rebalance) completes immediately.
func (h *HostController) RebuildSlot(stripe int64, drive int, cb func(error)) {
	if h.dyn == nil {
		h.rt.Defer(func() { cb(fmt.Errorf("core: layout does not support slot rebuild: %w", backend.ErrUnsupported)) })
		return
	}
	member := h.dyn.Member(stripe, drive)
	if member < 0 {
		h.rt.Defer(func() { cb(nil) })
		return
	}
	to, ok := h.dyn.ClaimSpare(stripe, func(d int) bool { return h.failed[d] })
	if !ok {
		h.rt.Defer(func() { cb(fmt.Errorf("core: stripe %d: no spare slot for drive %d: %w", stripe, drive, blockdev.ErrIO)) })
		return
	}
	h.MigrateStripeChunk(stripe, member, to, cb)
}

// EvictSlot migrates one chunk off a drive being removed, into an idle
// slot of its row on the remaining drives.
func (h *HostController) EvictSlot(stripe int64, drive int, cb func(error)) {
	if h.dyn == nil {
		h.rt.Defer(func() { cb(fmt.Errorf("core: layout does not support eviction: %w", backend.ErrUnsupported)) })
		return
	}
	member := h.dyn.Member(stripe, drive)
	if member < 0 {
		h.rt.Defer(func() { cb(nil) })
		return
	}
	to, ok := h.dyn.ClaimSpare(stripe, func(d int) bool { return d == drive || h.failed[d] })
	if !ok {
		h.rt.Defer(func() { cb(fmt.Errorf("core: stripe %d: no slot to evict drive %d into: %w", stripe, drive, blockdev.ErrIO)) })
		return
	}
	h.MigrateStripeChunk(stripe, member, to, cb)
}

// AddDrive grows a declustered volume's drive set by one: the layout gains
// an (initially empty) drive and the controller maps it to fabric endpoint
// node. Returns the new drive index. The caller rebalances existing chunks
// onto it via the layout's PlanAdd and MigrateStripeChunk.
func (h *HostController) AddDrive(node NodeID) (int, error) {
	if h.dyn == nil {
		return 0, fmt.Errorf("core: layout does not support drive add: %w", backend.ErrUnsupported)
	}
	idx := h.dyn.AddDrive()
	if idx != len(h.memberNode) {
		// Several controllers can share one Dynamic layout only if they grow
		// it in lockstep; today each volume owns its layout.
		panic(fmt.Sprintf("core: layout drive %d != controller drive %d", idx, len(h.memberNode)))
	}
	h.memberNode = append(h.memberNode, node)
	return idx, nil
}

// RetireDrive marks a drive removed in the layout: ClaimSpare and future
// rebalances never target it again. Chunks must already be migrated off
// (EvictSlot) or rebuilt elsewhere (RebuildSlot).
func (h *HostController) RetireDrive(drive int) {
	if h.dyn != nil {
		h.dyn.SetRemoved(drive, true)
	}
}
