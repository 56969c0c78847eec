package core

import (
	"fmt"

	"draid/internal/blockdev"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/raid"
)

// Host-side decode: the rare paths that pull survivor chunks to the host and
// solve there — reads of a stripe with more than one erasure, any read or
// rebuild that meets unreadable sectors, scrub, the host writer (§5.4
// retry, degraded corner cases, the host-reduce profiles) and resync.
// They share one read fan-out (readMembers), one decision of whom to read
// (planDecode) and one solver (parity.SolveStripe, through solveLost).
// DESIGN.md, "Host-side decode", has the caller-by-caller table.

// readMembers issues one OpRead of stripe's chunk-relative range [lo,hi) to
// each listed member, in order — serial sends each once the one before has
// answered — and collects the payloads by member. Exactly
// one continuation runs: done with every payload in hand (the buffers are the
// caller's to keep); media — optional — when a reader reports unreadable
// sectors, with that member and the drive range in the completion; failed
// on the deadline, with the readers observed down (also after a media report
// when media is nil). The op is returned for a caller that may cancel it.
func (h *HostController) readMembers(kind string, stripe, lo, hi int64, members []int, serial bool,
	done func(got map[int]parity.Buffer), media func(member int, cmd nvmeof.Command), failed func(missing []NodeID)) *stripeOp {
	got := make(map[int]parity.Buffer, len(members))
	// The reverse lookup is per stripe and fixed at issue: under a declustered
	// layout the global node→drive map says nothing about which member of
	// THIS stripe an endpoint served, and a migration may commit before the
	// answer is back.
	asked := make(map[NodeID]int, len(members))
	op := h.beginOp(kind, stripe, func() { done(got) }, failed)
	next := 0
	issue := func() {
		m := members[next]
		next++
		t := h.nodeAt(stripe, m)
		asked[t] = m
		h.send(op, t, oneReply, nvmeof.Command{
			Opcode: nvmeof.OpRead, Offset: h.driveOff(stripe) + lo, Length: hi - lo,
		}, parity.Buffer{})
	}
	op.onPayload = func(from NodeID, _ nvmeof.Command, b parity.Buffer) {
		got[asked[from]] = b.Disown() // kept by the caller
		if serial && next < len(members) {
			issue() // owed again before complete checks owed: the op stays open
		}
	}
	op.onMediaErr = media
	for next < len(members) && (!serial || next == 0) {
		issue()
	}
	return op
}

// planDecode decides whom a host-side decode of stripe reads. wanted lists
// the members whose content the caller needs, in the order to read them;
// skip marks members to treat as erased besides the failed ones. It returns
// the readers and the wanted members that are erased and must be solved.
//
// With nothing wanted erased the readers are the wanted members. Otherwise
// the solve needs every surviving data chunk plus one surviving parity per
// erased data chunk, P before Q, so those join the readers; ok is false when
// the stripe has fewer parities left than that.
func (h *HostController) planDecode(stripe int64, wanted []int, skip map[int]bool) (readers, lost []int, ok bool) {
	erased := func(m int) bool { return h.memberFailed(stripe, m) || skip[m] }
	reading := make([]bool, h.geo.Width)
	read := func(m int) {
		if !reading[m] {
			reading[m] = true
			readers = append(readers, m)
		}
	}
	for _, m := range wanted {
		if erased(m) {
			lost = append(lost, m)
		} else {
			read(m)
		}
	}
	if len(lost) == 0 {
		return readers, nil, true
	}
	need := 0
	for c := 0; c < h.geo.DataChunks(); c++ {
		if m := h.geo.DataDrive(stripe, c); erased(m) {
			need++
		} else {
			read(m)
		}
	}
	parities := []int{h.geo.PDrive(stripe)}
	if h.geo.Level == raid.Raid6 {
		parities = append(parities, h.geo.QDrive(stripe))
	}
	for _, m := range parities {
		if need > 0 && !erased(m) {
			need--
			read(m)
		}
	}
	return readers, lost, need == 0
}

// solveLost reconstructs the lost members' content from the pieces planDecode
// had read: member space in, parity.SolveStripe in chunk-index space, member
// space out. A data chunk absent from got is one the plan found erased.
func (h *HostController) solveLost(stripe int64, lost []int, got map[int]parity.Buffer) (map[int]parity.Buffer, error) {
	solved := make(map[int]parity.Buffer, len(lost))
	if len(lost) == 0 {
		return solved, nil
	}
	s := parity.Stripe{Data: make([]parity.Buffer, h.geo.DataChunks())}
	at := func(m int) *parity.Buffer {
		switch kind, idx := h.geo.Role(stripe, m); kind {
		case raid.KindP:
			return &s.P
		case raid.KindQ:
			return &s.Q
		default:
			return &s.Data[idx]
		}
	}
	for m, b := range got {
		*at(m) = b
	}
	var lostData []int
	for c := range s.Data {
		if _, ok := got[h.geo.DataDrive(stripe, c)]; !ok {
			lostData = append(lostData, c)
		}
	}
	wantP, wantQ := false, false
	for _, m := range lost {
		switch kind, _ := h.geo.Role(stripe, m); kind {
		case raid.KindP:
			wantP = true
		case raid.KindQ:
			wantQ = true
		}
	}
	if err := parity.SolveStripe(&s, lostData, wantP, wantQ); err != nil {
		return nil, fmt.Errorf("core: stripe %d: %v: %w", stripe, err, blockdev.ErrDoubleFault)
	}
	for _, m := range lost {
		solved[m] = *at(m)
	}
	return solved, nil
}

// gatherSolveRange reads the chunk-relative range [lo,hi) of stripe from
// every member that is neither failed nor in skip, then solves the content of
// the unread members through the surviving redundancy. On success cb receives
// got (member → read buffer) and solved (member → reconstructed buffer, one
// entry per failed/skipped member, parity included). A member whose read
// reports a media error is added to skip and the gather restarts — each
// restart shrinks the reader set, so the recursion is bounded by Width. When
// the erasures exceed the parity budget, cb receives a *mediaShortfall
// carrying the budget-breaking member range if a media report is among them,
// and plain blockdev.ErrDoubleFault if member failures alone did it.
func (h *HostController) gatherSolveRange(stripe, lo, hi int64, skip map[int]bool, cb func(got, solved map[int]parity.Buffer, err error)) {
	sk := make(map[int]bool, len(skip)+1)
	for m, v := range skip {
		if v {
			sk[m] = true
		}
	}
	g := &gatherState{h: h, stripe: stripe, lo: lo, hi: hi, skip: sk, cb: cb}
	g.attempt()
}

// gatherState is one gather-solve across its media-error restarts.
type gatherState struct {
	h       *HostController
	stripe  int64
	lo, hi  int64
	skip    map[int]bool
	lastBad *mediaShortfall // most recent media report, for shortfall errors
	cb      func(got, solved map[int]parity.Buffer, err error)
}

func (g *gatherState) attempt() {
	h := g.h
	// dRAID decodes every member it can read; a host-centric controller
	// wants the data and the erased members, so planDecode adds only the
	// surviving parity the solve needs (a RAID-6 single loss leaves Q unread).
	wanted := make([]int, 0, h.geo.Width)
	for m := 0; m < h.geo.Width; m++ {
		if kind, _ := h.geo.Role(g.stripe, m); !h.cfg.Reduce.hostReduces() || kind == raid.KindData ||
			g.skip[m] || h.memberFailed(g.stripe, m) {
			wanted = append(wanted, m)
		}
	}
	readers, lost, ok := h.planDecode(g.stripe, wanted, g.skip)
	if !ok {
		// Member failures alone: a plain double fault. With a media report
		// among the erasures the error is also a media error, and names the
		// budget-breaking range when one is known.
		err := fmt.Errorf("core: stripe %d: %w", g.stripe, blockdev.ErrDoubleFault)
		if g.lastBad != nil {
			err = g.lastBad
		} else if len(g.skip) > 0 {
			err = &mediaShortfall{stripe: g.stripe, member: -1}
		}
		h.rt.Defer(func() { g.cb(nil, nil, err) })
		return
	}
	h.readMembers("media-gather", g.stripe, g.lo, g.hi, readers, false,
		func(got map[int]parity.Buffer) {
			h.worker.Exec(h.solveCost(g.hi-g.lo, len(readers), len(lost)), func() {
				solved, err := h.solveLost(g.stripe, lost, got)
				if err != nil {
					g.cb(nil, nil, err)
					return
				}
				g.cb(got, solved, nil)
			})
		},
		func(member int, cmd nvmeof.Command) {
			// A latent error on another member: exclude it too and re-gather.
			g.lastBad = &mediaShortfall{
				stripe: g.stripe, member: member,
				off: cmd.Offset - h.driveOff(g.stripe), n: cmd.Length,
			}
			g.skip[member] = true
			g.attempt()
		},
		func(missing []NodeID) {
			// A reader vanished mid-gather (crashed but not yet detected):
			// escalate it exactly like the normal read path and re-solve with
			// it erased — the plan decides between remaining redundancy and a
			// typed loss. Each escalation permanently shrinks the reader set,
			// so the restarts are bounded by Width.
			if len(missing) == 0 {
				g.cb(nil, nil, fmt.Errorf("core: stripe %d media gather: %w", g.stripe, blockdev.ErrTimeout))
				return
			}
			for _, m := range missing {
				h.failNode(m)
			}
			g.attempt()
		})
}

// hostReadGroup serves one stripe's read group on the host: failedExts sit
// on erased members, and bad (or -1) is a survivor that reported unreadable
// sectors while serving the group peer-to-peer. It gathers the union range
// of the failed extents once and solves every erasure in it; normal extents
// inside that range ride along in the gathered pieces, the rest stay plain
// reads, so nothing is read twice. A media-bad member is repaired in place
// afterwards, decoupled from the user read.
func (h *HostController) hostReadGroup(stripe int64, failedExts, normal []raid.Extent, bad int, asm *assembler, fail *error, done func()) {
	uLo, uHi := raid.UnionRange(failedExts)
	riding := append([]raid.Extent(nil), failedExts...)
	pending := 1
	part := func() {
		pending--
		if pending == 0 {
			done()
		}
	}
	for _, e := range normal {
		if e.Off >= uLo && e.Off+e.Len <= uHi {
			riding = append(riding, e)
		} else {
			pending++
			h.normalReadExtent(e, asm, fail, part, nil)
		}
	}
	var skip map[int]bool
	if bad >= 0 {
		skip = map[int]bool{bad: true}
	}
	h.gatherSolveRange(stripe, uLo, uHi, skip,
		func(got, solved map[int]parity.Buffer, err error) {
			if err != nil {
				if h.recordShortfall(err) {
					for _, fe := range failedExts {
						h.recordLost(stripe, h.geo.DataDrive(stripe, fe.Chunk), fe.Off, fe.Off+fe.Len)
					}
				}
				*fail = fmt.Errorf("core: stripe %d read: %w", stripe, err)
				part()
				return
			}
			for _, e := range riding {
				d := h.geo.DataDrive(stripe, e.Chunk)
				b, ok := solved[d]
				if !ok {
					b = got[d]
				}
				if b.Elided() {
					asm.put(e.VOff, parity.Sized(int(e.Len)))
					continue
				}
				asm.put(e.VOff, b.Slice(int(e.Off-uLo), int(e.Len)))
			}
			if bad >= 0 {
				h.repairChunkRange(stripe, bad, uLo, uHi, nil)
			} else {
				h.stats.HostFallbackReads++ // decoded here because members failed, not media
			}
			part()
		})
}
