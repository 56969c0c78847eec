package core

import (
	"fmt"
	"sort"

	"draid/internal/blockdev"
	"draid/internal/parity"
)

// §5.4 host-failure handling: like Linux MD, the controller keeps a
// write-intent bitmap of stripes with writes in flight. After a host crash,
// a replacement controller needs to resync only those stripes — never a
// full-array scan. In this simulation the bitmap is exposed directly
// (DirtyStripes) where a production system would persist it.

func (h *HostController) markDirty(stripe int64) {
	if h.dirty == nil {
		h.dirty = make(map[int64]int)
	}
	h.dirty[stripe]++
}

func (h *HostController) clearDirty(stripe int64) {
	h.dirty[stripe]--
	if h.dirty[stripe] <= 0 {
		delete(h.dirty, stripe)
	}
}

// DirtyStripes returns the stripes with writes currently in flight — the
// write-intent bitmap a replacement controller must resync after a host
// crash.
func (h *HostController) DirtyStripes() []int64 {
	out := make([]int64, 0, len(h.dirty))
	for s := range h.dirty {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ResyncStripe restores the parity invariant of one stripe, exactly as MD's
// resync does: read every healthy data chunk in full, recompute P (and Q),
// write the parity chunk(s) back. Data content is taken as found — resync
// repairs consistency, not the write hole. The whole read-compute-write runs
// under the stripe write lock: a destage (or user write) landing between the
// resync's reads and its parity write would otherwise have its fresh parity
// overwritten by a recomputation from stale data.
func (h *HostController) ResyncStripe(stripe int64, cb func(error)) {
	h.repairStep(stripe, func(end func(error)) { h.resyncStripeLocked(stripe, end) }, nil, cb)
}

func (h *HostController) resyncStripeLocked(stripe int64, cb func(error)) {
	h.stats.Resyncs++
	cs := h.geo.ChunkSize
	k := h.geo.DataChunks()
	pAlive, qAlive := h.parityAlive(stripe)
	if !pAlive && !qAlive {
		h.rt.Defer(func() { cb(nil) }) // nothing to resync
		return
	}

	chunks := make([]parity.Buffer, k)
	var readers []int
	for c := 0; c < k; c++ {
		m := h.geo.DataDrive(stripe, c)
		if h.memberFailed(stripe, m) {
			// A missing data chunk makes its old content undefined; treat
			// as zero for the recomputation (MD resyncs degraded arrays
			// only after the member is replaced and rebuilt).
			chunks[c] = parity.Alloc(int(cs))
			continue
		}
		readers = append(readers, m)
	}
	if len(readers) == 0 {
		h.rt.Defer(func() { cb(blockdev.ErrIO) })
		return
	}

	h.readMembers("resync-read", stripe, 0, cs, readers, false,
		func(got map[int]parity.Buffer) {
			for m, b := range got {
				_, idx := h.geo.Role(stripe, m)
				chunks[idx] = b
			}
			h.cores.Exec(h.parityCost(cs, qAlive), func() {
				h.writeMembers("resync-write", stripe, h.parityWrites(nil, stripe, 0, chunks, pAlive, qAlive),
					func() { cb(nil) },
					func([]NodeID) {
						cb(fmt.Errorf("core: stripe %d resync write: %w", stripe, blockdev.ErrTimeout))
					})
			})
		},
		nil,
		func([]NodeID) {
			cb(fmt.Errorf("core: stripe %d resync read: %w", stripe, blockdev.ErrTimeout))
		})
}
