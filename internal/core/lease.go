package core

import (
	"fmt"
	"slices"

	"draid/internal/blockdev"
	"draid/internal/sim"
)

// Host-side membership: the lease watchdog and stand-down machinery pairing
// the server-side epoch checks (server.go). Epoch fencing makes a stale
// host's writes inert at the bdevs; the lease makes the stale host notice
// *proactively* — it parks its own I/O within one lease of losing the
// volume instead of discovering the takeover through rejected writes.

// startLeaseWatchdog arms the membership lease: every half-lease the
// controller re-validates ownership through Config.RenewLease, and once a
// full lease elapses without a successful renewal it stands down. Ticks run
// as background work so a pending watchdog never keeps Run from returning.
func (h *HostController) startLeaseWatchdog() {
	d := h.cfg.Lease
	expiry := h.rt.Now() + sim.Time(d)
	var tick func()
	tick = func() {
		if h.crashed || h.fenced {
			return
		}
		if h.cfg.RenewLease == nil || h.cfg.RenewLease() {
			expiry = h.rt.Now() + sim.Time(d)
		} else if h.rt.Now() >= expiry {
			h.stats.LeaseExpiries++
			h.standDown(blockdev.ErrFenced)
			return
		}
		h.rt.AfterBG(d/2, tick)
	}
	h.rt.AfterBG(d/2, tick)
}

// standDown parks the controller: it no longer owns the volume. Foreground
// I/O fails fast with cause (wrapped through fenceError), destage stops
// retrying, and the lease watchdog winds down. In-flight operations are left
// to resolve through their completions or deadlines — their failure paths
// observe the fenced flag and report the typed error. Unlike Crash, every
// pending callback still fires: the issuer deserves an answer.
func (h *HostController) standDown(cause error) {
	if h.fenced || h.crashed {
		return
	}
	h.fenced = true
	h.fenceErr = cause
}

// fenceError wraps the stand-down cause for one refused operation.
func (h *HostController) fenceError(what string) error {
	cause := h.fenceErr
	if cause == nil {
		cause = blockdev.ErrFenced
	}
	return fmt.Errorf("core: %s refused: %w", what, cause)
}

// Fenced reports whether the controller has stood down from its volume.
func (h *HostController) Fenced() bool { return h.fenced }

// Epoch returns the host epoch this controller stamps on its capsules
// (zero when epoch fencing is off).
func (h *HostController) Epoch() uint64 { return h.cfg.Epoch }

// Seize adopts a predecessor that may still be alive — the partitioned-host
// takeover. Unlike Adopt it does not require the predecessor to have
// crashed: the caller has been granted a higher epoch, so everything the
// zombie keeps issuing is rejected at the bdevs (StatusStaleEpoch) and its
// first rejection makes it stand down. Registration already repointed the
// host endpoint's volume demux here, so completions addressed to the zombie
// arrive at this controller — and are discarded by the foreign-epoch check,
// since both sessions continue the same command-ID sequence.
//
// Requires epoch fencing (a nonzero Config.Epoch above the predecessor's):
// without it nothing stops the zombie's writes, and ID collisions would
// corrupt both sessions' op state.
func (h *HostController) Seize(prev *HostController) []int64 {
	if h.cfg.Epoch == 0 || h.cfg.Epoch <= prev.cfg.Epoch {
		panic("core: seizing a live controller requires a higher host epoch")
	}
	return h.takeover(prev)
}

// takeover copies a predecessor's array state — the op-ID sequence, failed
// members, member→endpoint mapping, rebuilds in progress, and staged
// write-back data — and returns its dirty stripes (the §5.4 resync set).
func (h *HostController) takeover(prev *HostController) []int64 {
	// Continue the predecessor's op-ID sequence: server-side state (reduce
	// sessions, fencing boundaries) is keyed by (volume, op ID), so a
	// replacement reusing IDs would collide with the crashed session's
	// leftovers. Monotone IDs also let a fence name the dead session as
	// "every ID below mine".
	h.nextID = prev.nextID
	for m := range prev.failed {
		h.failed[m] = true
	}
	// Replace rather than copy: the predecessor may have grown its drive
	// set (AddDrive) past what this controller's layout reported at
	// construction.
	h.memberNode = append([]NodeID(nil), prev.memberNode...)
	for m, r := range prev.rebuilds {
		h.rebuilds[m] = &rebuildState{dest: r.dest, frontier: r.frontier}
	}
	if prev.crashed {
		// A crash dropped the callbacks of the relocations it interrupted;
		// Fence ends them once the dead session can no longer write.
		h.orphans = slices.Clone(prev.relocating)
	}
	if h.stage != nil && prev.stage != nil {
		// Replay the predecessor's intent log: acknowledged staged writes
		// (including any mid-destage snapshot) become live staged data here
		// and destage normally — zero acknowledged writes lost.
		h.stage.adopt(prev.stage)
	}
	return prev.DirtyStripes()
}
