package core

import (
	"errors"
	"fmt"
	"slices"

	"draid/internal/backend"
	"draid/internal/blockdev"
	"draid/internal/nvmeof"
	"draid/internal/parity"
)

// writeChunkToNode writes a full chunk image for stripe to an arbitrary
// endpoint — a member's drive or a hot spare being rebuilt onto.
func (h *HostController) writeChunkToNode(stripe int64, to NodeID, b parity.Buffer, cb func(error)) {
	if int64(b.Len()) != h.geo.ChunkSize {
		h.rt.Defer(func() { cb(fmt.Errorf("core: chunk image is %d bytes, want %d", b.Len(), h.geo.ChunkSize)) })
		return
	}
	op := h.beginOp("rebuild-write", stripe,
		func() { cb(nil) },
		func([]NodeID) { cb(fmt.Errorf("core: stripe %d rebuild write: %w", stripe, blockdev.ErrTimeout)) },
	)
	h.send(op, to, oneReply, nvmeof.Command{
		Opcode: nvmeof.OpWrite,
		Offset: h.driveOff(stripe), Length: h.geo.ChunkSize,
	}, b)
}

// ---------------------------------------------------------------------------
// Repair plans. Every paced repair — rebuilding a failed drive, filling an
// added one, draining a leaving one — is the same procedure: walk a work
// list and relocate one chunk per item. The controller plans the walk (what
// the items are, what relocating one means under this layout, how the whole
// thing commits or aborts) and hands it to a repair manager
// (internal/repair), which owns pacing, progress and stop-on-error. The
// fixed-vs-declustered decision is made here, once, and nowhere above.

// Repair is one planned walk.
type Repair struct {
	// Label names the walk (trace span, recovery log); Unit is what Items
	// counts: "stripes" of a spare rebuild, "chunks" of a relocation.
	Label, Unit string
	Drive       int    // drive being rebuilt, filled or drained
	Dest        NodeID // spare endpoint rebuilt onto (fixed layout only)
	Items       int64
	ItemBytes   int64 // bytes one item moves: its cost against the rate budget
	// Stripe names item i's stripe for error text and loss reports.
	Stripe func(i int64) int64
	// Do relocates item i. ErrSlotTaken means the item was skipped, not
	// failed: the walk goes on. Finish closes the walk: commit on nil,
	// abandon on error. Both take the controller serving the volume at that
	// moment, not necessarily the planner: a walk outlives a host failover —
	// the adopter inherits the rebuild entry and shares the layout.
	Do     func(h *HostController, i int64, cb func(error))
	Finish func(h *HostController, err error)
}

// ErrNoSpare reports that a rebuild needs a spare endpoint and none is free.
var ErrNoSpare = errors.New("core: no spare endpoint available")

// ErrAbandoned ends a repair step whose controller crashed under it; the
// repair manager redoes the item on the successor.
var ErrAbandoned = errors.New("core: repair step abandoned by a crashed controller")

// ErrSlotTaken reports a planned move whose target slot was claimed by a
// racing rebuild or migration; the chunk stays put and placement remains
// valid, merely a little less balanced.
var ErrSlotTaken = errors.New("core: target slot already claimed")

func (h *HostController) newRepair(label, unit string, drive int, items int64) Repair {
	return Repair{
		Label: label, Unit: unit, Drive: drive, Items: items, ItemBytes: h.geo.ChunkSize,
		Stripe: func(i int64) int64 { return i },
		Finish: func(*HostController, error) {},
	}
}

// PlanRebuild plans the rebuild of a failed drive; limit > 0 bounds the work
// (experiments). This is the one rebuild entry point and the one place its
// arguments are checked: the drive must exist, be failed, and not already be
// rebuilding — nothing is touched otherwise.
//
// A fixed layout rebuilds stripe by stripe onto the endpoint spare() hands
// out (ErrNoSpare when it has none): foreground I/O below the advancing
// frontier is routed there, so the array sheds the degraded path
// incrementally, and on success the endpoint becomes the drive's. A
// declustered layout never calls spare(): each chunk the layout places on
// the drive is reconstructed into an idle slot of its own row — distributed
// spare space — and committed to the layout at once, so both the reads and
// the writes spread over the whole cluster; once a full walk has emptied the
// drive it is retired from the layout and stays failed.
func (h *HostController) PlanRebuild(drive int, limit int64, spare func() (NodeID, bool)) (Repair, error) {
	switch {
	case drive < 0 || drive >= len(h.memberNode):
		return Repair{}, fmt.Errorf("drive %d out of range [0,%d): %w", drive, len(h.memberNode), blockdev.ErrOutOfRange)
	case !h.failed[drive]:
		return Repair{}, fmt.Errorf("drive %d is not failed", drive)
	case h.rebuilds[drive] != nil:
		return Repair{}, fmt.Errorf("drive %d is already rebuilding", drive)
	}
	// Either way the open rebuild is registered in h.rebuilds: that is what
	// refuses a second rebuild of the drive, what a failover replacement
	// adopts, and what Quiescent reports if the walk never closes.
	if h.dyn != nil {
		slots := h.dyn.Slots(drive)
		partial := limit > 0 && int64(len(slots)) > limit
		if partial {
			slots = slots[:limit]
		}
		h.rebuilds[drive] = &rebuildState{dest: h.memberNode[drive]} // reroutes nothing: frontier stays 0
		p := h.newRepair(fmt.Sprintf("declustered rebuild d%d", drive), "chunks", drive, int64(len(slots)))
		p.Stripe = func(i int64) int64 { return slots[i].Stripe }
		p.Do = func(h *HostController, i int64, cb func(error)) { h.relocateSlot(slots[i].Stripe, drive, cb) }
		p.Finish = func(h *HostController, err error) {
			delete(h.rebuilds, drive)
			if err == nil && !partial {
				h.dyn.SetRemoved(drive, true)
			}
		}
		return p, nil
	}
	dest, ok := spare()
	if !ok {
		return Repair{}, ErrNoSpare
	}
	stripes := h.size / h.geo.StripeDataSize()
	if limit > 0 && limit < stripes {
		stripes = limit
	}
	h.rebuilds[drive] = &rebuildState{dest: dest}
	p := h.newRepair(fmt.Sprintf("rebuild m%d→n%d", drive, int(dest)), "stripes", drive, stripes)
	p.Dest = dest
	p.Do = func(h *HostController, stripe int64, cb func(error)) {
		r := h.rebuilds[drive] // the adopter's copy after a failover
		h.relocateChunk(stripe, h.layout.Member(stripe, drive), dest, func(err error) {
			if err == nil && r.frontier == stripe {
				r.frontier = stripe + 1
			}
		}, cb)
	}
	// Abandoned, the drive stays failed and the partial spare content is
	// discarded; committed, the spare becomes the drive's endpoint and the
	// drive returns to full service.
	p.Finish = func(h *HostController, err error) {
		delete(h.rebuilds, drive)
		if err == nil {
			h.memberNode[drive] = dest
			delete(h.failed, drive)
		}
	}
	return p, nil
}

// relocation is one open repair step; end closes it, once.
type relocation struct{ end func(error) }

// repairStep runs one repair step — a chunk relocation, a scrub, a resync —
// under stripe's write lock: body does the work and calls end exactly once.
// end runs settle (optional) with the outcome while the lock is still held,
// releases the lock, then reports to cb.
//
// A step ends exactly once. While open it is listed in h.relocating: a crash
// drops every operation callback, so the adopter ends it instead, with
// ErrAbandoned (takeover, Fence), on which its walk redoes the item on the
// successor — else reservation, lock and walk hang forever.
func (h *HostController) repairStep(stripe int64, body func(end func(error)), settle, cb func(error)) {
	r := &relocation{}
	r.end = func(err error) {
		i := slices.Index(h.relocating, r)
		if i < 0 {
			return
		}
		h.relocating = slices.Delete(h.relocating, i, i+1)
		if settle != nil {
			settle(err)
		}
		if !h.crashed {
			h.releaseStripe(stripe)
		}
		cb(err)
	}
	h.relocating = append(h.relocating, r)
	h.acquireStripe(stripe, func() { body(r.end) })
}

// relocateChunk is the one chunk-relocation primitive. Under the stripe
// write lock it obtains stripe member m's current image — read from its
// drive, or reconstructed through §6 when that drive is failed — and writes
// it to endpoint `to`. settle runs with the outcome while the lock is still
// held: commit the new home on nil (advance a frontier, commit a placement),
// roll back on error (release a reservation). Holding the lock across
// read+write+commit is what keeps a foreground write or destage from
// interleaving and leaving the relocated chunk stale.
func (h *HostController) relocateChunk(stripe int64, member int, to NodeID, settle, cb func(error)) {
	h.repairStep(stripe, func(end func(error)) {
		deliver := func(b parity.Buffer, err error) {
			if err != nil {
				end(err)
				return
			}
			h.writeChunkToNode(stripe, to, b, end)
		}
		if h.memberFailed(stripe, member) {
			h.ReconstructStripeChunk(stripe, member, deliver)
		} else {
			h.readChunk(stripe, member, deliver)
		}
	}, func(err error) {
		if err == nil {
			h.stats.RebuiltStripes++
		}
		settle(err)
	}, cb)
}

// ReconstructStripeChunk rebuilds the full chunk held by `member` in
// `stripe` on a peer (reduceTree, §6) and returns it to the host — the unit
// of work for drive rebuild (Figure 17a). The member must currently be marked
// failed; data, P and Q chunks all work.
func (h *HostController) ReconstructStripeChunk(stripe int64, member int, cb func(parity.Buffer, error)) {
	if !h.memberFailed(stripe, member) {
		h.rt.Defer(func() { cb(parity.Buffer{}, fmt.Errorf("core: member %d is not failed", member)) })
		return
	}
	h.stats.Reconstructions++
	// A survivor hit unreadable sectors mid-rebuild, or a second member of the
	// stripe is failed alongside this one (the single reduce tree cannot
	// express that solve — it needs P and Q together with per-survivor
	// coefficients outside the g^i form): gather the survivors to the host,
	// which solves through whatever redundancy remains, degrades to
	// lost-region accounting only past the parity budget, and refuses a
	// stripe with more members failed than it has parity.
	recoverOnHost := func() { h.rebuildRecoverChunk(stripe, member, cb) }
	if !h.reduceTree("rebuild-reconstruct", stripe, member, 0, h.geo.ChunkSize, nil, nil,
		func(b parity.Buffer) { cb(b.Disown(), nil) },
		func(int, nvmeof.Command) { recoverOnHost() },
		func([]NodeID) {
			cb(parity.Buffer{}, fmt.Errorf("core: stripe %d reconstruction: %w", stripe, blockdev.ErrTimeout))
		}) {
		recoverOnHost()
	}
}

// readChunk reads the full current chunk image of stripe member m from its
// healthy drive.
func (h *HostController) readChunk(stripe int64, member int, cb func(parity.Buffer, error)) {
	h.readMembers("migrate-read", stripe, 0, h.geo.ChunkSize, []int{member}, false,
		func(got map[int]parity.Buffer) { cb(got[member], nil) }, nil,
		func([]NodeID) {
			cb(parity.Buffer{}, fmt.Errorf("core: stripe %d migrate read: %w", stripe, blockdev.ErrTimeout))
		})
}

// migrateChunk relocates stripe member m to physical drive `to`,
// which must already be reserved in the layout (ClaimSpare/ClaimDrive). On
// success the new placement is committed — the layout no longer maps the
// member to its old drive, so foreground I/O follows at once; on failure the
// reservation is released and the chunk stays where it was.
func (h *HostController) migrateChunk(stripe int64, member, to int, cb func(error)) {
	h.relocateChunk(stripe, member, h.nodeOf(to), func(err error) {
		if err == nil {
			h.dyn.Commit(stripe, member, to)
		} else {
			h.dyn.Release(stripe, to)
		}
	}, cb)
}

// relocateSlot moves the chunk a stripe keeps on `drive` into an idle slot
// of its row — the unit of work of a declustered rebuild (the drive is
// failed: the chunk is reconstructed) and of a drain (it is read). The
// drive itself is never a candidate: its slot in this row is the occupied
// one. A stripe with no chunk left there (relocated by a racing walk)
// completes immediately.
func (h *HostController) relocateSlot(stripe int64, drive int, cb func(error)) {
	member := h.dyn.Member(stripe, drive)
	if member < 0 {
		h.rt.Defer(func() { cb(nil) })
		return
	}
	to, ok := h.dyn.ClaimSpare(stripe, func(d int) bool { return h.failed[d] })
	if !ok {
		h.rt.Defer(func() {
			cb(fmt.Errorf("core: stripe %d: no idle slot to move drive %d's chunk into: %w", stripe, drive, blockdev.ErrIO))
		})
		return
	}
	h.migrateChunk(stripe, member, to, cb)
}

// AddDrive grows a declustered volume's drive set by one: the layout gains
// an (initially empty) drive mapped to fabric endpoint node. It returns the
// new drive index and the plan that fills it: a fair share of existing
// chunks, at most one per row, migrates onto the newcomer; a move whose
// target slot has meanwhile been claimed is skipped.
func (h *HostController) AddDrive(node NodeID) (int, Repair, error) {
	if h.dyn == nil {
		return 0, Repair{}, fmt.Errorf("core: layout does not support drive add: %w", backend.ErrUnsupported)
	}
	idx := h.dyn.AddDrive()
	if idx != len(h.memberNode) {
		// Several controllers can share one Dynamic layout only if they grow
		// it in lockstep; today each volume owns its layout.
		panic(fmt.Sprintf("core: layout drive %d != controller drive %d", idx, len(h.memberNode)))
	}
	h.memberNode = append(h.memberNode, node)
	moves := h.dyn.PlanAdd(idx)
	p := h.newRepair(fmt.Sprintf("rebalance onto d%d", idx), "chunks", idx, int64(len(moves)))
	p.Stripe = func(i int64) int64 { return moves[i].Stripe }
	p.Do = func(h *HostController, i int64, cb func(error)) {
		m := moves[i]
		if !h.dyn.ClaimDrive(m.Stripe, m.To) {
			cb(ErrSlotTaken)
			return
		}
		h.migrateChunk(m.Stripe, m.Member, m.To, cb)
	}
	return idx, p, nil
}

// PlanDrain plans a drive's removal: every chunk on it migrates into idle
// slots on the remaining drives. The drive is retired in the layout up
// front, so no racing rebuild or rebalance places new chunks onto it
// mid-drain, and stays retired afterwards.
func (h *HostController) PlanDrain(drive int) (Repair, error) {
	if h.dyn == nil {
		return Repair{}, fmt.Errorf("core: layout does not support drive removal: %w", backend.ErrUnsupported)
	}
	if drive < 0 || drive >= len(h.memberNode) {
		return Repair{}, fmt.Errorf("core: drive %d out of range [0,%d): %w", drive, len(h.memberNode), blockdev.ErrOutOfRange)
	}
	h.dyn.SetRemoved(drive, true)
	slots := h.dyn.Slots(drive)
	p := h.newRepair(fmt.Sprintf("drain d%d", drive), "chunks", drive, int64(len(slots)))
	p.Stripe = func(i int64) int64 { return slots[i].Stripe }
	p.Do = func(h *HostController, i int64, cb func(error)) { h.relocateSlot(slots[i].Stripe, drive, cb) }
	return p, nil
}
