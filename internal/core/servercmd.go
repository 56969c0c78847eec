package core

import (
	"fmt"

	"draid/internal/backend"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/sim"
)

// cmdRec is the command record of one admitted capsule: what its
// continuations need — the message, the reduction it takes part in, the
// drive-read buffer, the error — with its drive and CPU callbacks bound once,
// when the record is made. Records are pooled per controller, so serving a
// capsule builds no closure chain; the handlers below are steps on the record,
// as an SPDK bdev's are states of its I/O.
//
// pending counts the continuations still to run: the dispatch step itself,
// a drive callback, each Exec slot, a place on a reduction's deferred list.
// The record goes back to its slab when the last has run. Pipelined RMW has
// two after its drive read — the forward and the write. A record whose drive
// failed under it never gets its callback and is simply never reused, nor is
// its payload released.
type cmdRec struct {
	s  *ServerController
	m  Message
	st *reduceState // the reduction this command anchors or contributes to, held from join to done
	// buf is the drive-read buffer and what is made of it in place (an RMW
	// delta, a reconstruct-write overlay), or a full-union contribution's
	// copy; out is a second payload leaving separately (an AlsoRead copy).
	buf, out parity.Buffer
	// err is how the drive read went, or, for a reduction's write-back, the
	// write.
	err     error
	pending int
	// writeNext: the command's drive write waits for its forward (the
	// serial ablation, Pipelined off).
	writeNext bool

	// The drive op in flight: the range read, the range written and its
	// sequence number, and the edge blocks the write leaves poisoned.
	rOff, rN int64
	wOff, wN int64
	wSeq     uint64
	stale    []int64

	readFn    func(parity.Buffer, error)
	writeFn   func(error)
	replyFn   func() // the command's own completion to its sender
	forwardFn func() // a PartialWrite's contribution to its reducers
	reduceFn  func() // a fold into the reduction
	resultFn  func() // the reduction's result to its host
}

// makeRec builds a command record, binding its steps once.
func (s *ServerController) makeRec() *cmdRec {
	r := &cmdRec{s: s}
	r.readFn, r.writeFn = r.readDone, r.writeDone
	r.replyFn, r.forwardFn, r.reduceFn, r.resultFn = r.reply, r.forward, r.reduce, r.result
	return r
}

// newRec takes a record for m from the slab, with the dispatch step pending.
func (s *ServerController) newRec(m Message) *cmdRec {
	r := s.cmds.Get()
	r.m, r.pending = m, 1
	return r
}

// done retires one continuation; after the last the record lets go of its
// reduction, releases the capsule's payload — it has owned it since
// dispatch, and any drive write it lent it to has landed — is cleared so it
// pins nothing, and goes back. This is the one place a dispatched command's
// payload is released.
func (r *cmdRec) done() {
	if r.pending--; r.pending > 0 {
		return
	}
	if r.st != nil {
		r.s.release(r.st)
	}
	r.m.Payload.Release()
	r.m, r.st, r.buf, r.out, r.err = Message{}, nil, parity.Buffer{}, parity.Buffer{}, nil
	r.writeNext = false
	r.s.cmds.Put(r)
}

// join makes st the reduction this command takes part in, holding it until
// the record is done.
func (r *cmdRec) join(st *reduceState) {
	st.refs++
	r.st = st
}

// exec queues fn, one of the record's bound steps, for d of core time.
func (r *cmdRec) exec(d sim.Duration, fn func()) {
	r.pending++
	r.s.core.Exec(d, fn)
}

// read reads [off, off+n); readDone takes it from there.
func (r *cmdRec) read(off, n int64) {
	r.rOff, r.rN = off, n
	r.pending++
	r.s.drive.Read(off, n, r.readFn)
}

// write writes b at off and, when integrity is on, refreshes the covering
// block checksums from the stored bytes once the write lands (writeDone).
//
// Edge blocks only partially covered by the write keep slack bytes the
// writer never saw. Recomputing their checksum blindly would absorb any
// corruption sitting in that slack into a "valid" checksum — laundering bit
// rot into data every later read trusts. So those blocks are verified
// against their pre-write content first, and a block that fails stays
// poisoned after the write: reads keep reporting it, and the host's
// block-aligned repair path rewrites it whole with reconstructed bytes.
func (r *cmdRec) write(off int64, b parity.Buffer) {
	s := r.s
	n := int64(b.Len())
	r.wOff, r.wN, r.stale = off, n, r.stale[:0]
	if s.integ != nil && n > 0 {
		bs := s.integ.BlockSize()
		head := off - off%bs
		tail := (off + n - 1) - (off+n-1)%bs
		r.checkEdge(head)
		if tail != head {
			r.checkEdge(tail)
		}
	}
	s.wseq++
	r.wSeq = s.wseq
	s.wpending[r.wSeq] = struct{}{}
	r.pending++
	s.drive.Write(off, b, r.writeFn)
}

// checkEdge records blk as stale when the write in flight covers it only
// partly and its checksum already fails.
func (r *cmdRec) checkEdge(blk int64) {
	s := r.s
	capacity := s.drive.Capacity()
	bEnd := min(blk+s.integ.BlockSize(), capacity)
	if blk >= r.wOff && bEnd <= r.wOff+r.wN {
		return // fully covered: the write defines the whole block
	}
	if _, _, ok := s.integ.Verify(blk, bEnd-blk, capacity, s.peek); !ok {
		r.stale = append(r.stale, blk)
	}
}

// handleRead serves a standard NVMe-oF read.
func (r *cmdRec) handleRead() { r.read(r.m.Cmd.Offset, r.m.Cmd.Length) }

// handleWrite serves a standard NVMe-oF write.
func (r *cmdRec) handleWrite() { r.write(r.m.Cmd.Offset, r.m.Payload) }

// handlePartialWrite implements Algorithm 1 (HandleDataChunk).
//
// Capsule conventions (all offsets absolute drive offsets):
//   - Offset/Length + Payload: the write segment (Length 0 for RW_READ)
//   - FwdOffset/FwdLength: this bdev's contribution segment
//     (== write segment for RMW; == union for RW_WRITE/RW_READ)
//   - SGL[0]: the union segment, quoted in Peer messages
//   - NextDest / NextDest2 / DataIdx: reducer routing
//
// RMW reads the old data over the write segment and forwards old ⊕ new.
// RW_WRITE forwards the stored data over the union overlaid with the new
// segment, skipping the read when the write covers the whole union. RW_READ
// forwards the stored union and writes nothing; it earns no host completion
// (the reducer's covers it).
func (r *cmdRec) handlePartialWrite() {
	cmd := &r.m.Cmd
	if len(cmd.SGL) != 1 {
		panic("core: PartialWrite without union SGL")
	}
	union := cmd.SGL[0]
	switch cmd.Subtype {
	case nvmeof.SubRMW:
		r.read(cmd.Offset, cmd.Length)
	case nvmeof.SubRWWrite:
		if cmd.Offset == union.Off && cmd.Length == union.Len {
			r.buf = r.m.Payload.Clone()
			r.exec(r.s.cfg.Costs.Xor(int(union.Len)), r.forwardFn)
			r.write(cmd.Offset, r.m.Payload)
			return
		}
		r.read(union.Off, union.Len)
	case nvmeof.SubRWRead:
		r.read(union.Off, union.Len)
	default:
		panic(fmt.Sprintf("core: PartialWrite subtype %v", cmd.Subtype))
	}
}

// handlePeer implements the Peer-arrival half of Algorithm 2
// (handle_peer_partial_parity). Peers may arrive before the anchoring
// Parity/Reconstruction command; state is created on demand. A Peer with a
// failing status and no payload is a participant whose own read failed: it
// counts like a contribution and fails the reduction. A Peer whose part the
// reduction already holds, or whose reduction has ended, is a duplicate: it
// is dropped (its record releases the payload).
func (r *cmdRec) handlePeer() {
	cmd := &r.m.Cmd
	st := r.s.stateFor(cmd, cmd.Offset, cmd.Length)
	if st == nil || !st.admit(r.m.From, cmd) {
		return
	}
	r.join(st)
	if r.s.cfg.BarrierReduce && !st.anchorArrived {
		st.deferred = append(st.deferred, r)
		r.pending++ // the place on the list
		return
	}
	r.applyPeer()
}

// applyPeer queues the Peer's fold.
func (r *cmdRec) applyPeer() { r.exec(r.foldCost(), r.reduceFn) }

// foldCost is the core time to fold the command's contribution into its
// reduction: an XOR, or a GF multiply-accumulate when it is scaled.
func (r *cmdRec) foldCost() sim.Duration {
	cmd := &r.m.Cmd
	if cmd.DataIdx != NoScale {
		return r.s.cfg.Costs.Gf(int(cmd.FwdLength))
	}
	return r.s.cfg.Costs.Xor(int(cmd.FwdLength))
}

// handleParity implements the host-command half of Algorithm 2
// (handle_host_parity). RMW preloads the stored parity chunk; reconstruct
// writes skip the preload. A payload on the Parity command is the host's own
// contribution (degraded writes where the host supplies the failed chunk's
// new data).
//
// A second Parity command for the same reduction is a duplicate and is
// dropped: one anchor, one preload, one completion.
func (r *cmdRec) handleParity() {
	cmd := &r.m.Cmd
	st := r.s.stateFor(cmd, cmd.Offset, cmd.Length)
	if st == nil || !st.anchor(cmd) {
		return
	}
	st.writeBack = true
	st.replyTo = r.m.From
	r.join(st)
	if cmd.Subtype == nvmeof.SubRMW {
		r.read(cmd.Offset, cmd.Length)
		return
	}
	r.exec(r.s.cfg.Costs.Xor(int(cmd.FwdLength)), r.reduceFn)
}

// arrive registers the Parity anchor once its own part is in: the reduction
// may complete from now on, and contributions the BarrierReduce ablation held
// back are let through.
func (r *cmdRec) arrive() {
	r.st.anchorArrived = true
	r.s.drainDeferred(r.st)
	r.finish()
}

// handleReconstruction implements the §6.1 degraded-read participant logic.
//
// Capsule conventions (absolute offsets):
//   - Offset/Length: this bdev's combined drive read (union of its own
//     normal-read segment and the reconstruction segment, plus any gap)
//   - FwdOffset/FwdLength: the reconstruction segment R
//   - SGL[0] (AlsoRead only): this bdev's own normal-read segment, returned
//     directly to the host on the decoupled path
//   - NextDest: the reducer; WaitNum (reducer only): expected contributions
//     including the reducer's own
//   - DataIdx: GF scale for this bdev's contribution (NoScale for XOR)
//
// A duplicate at the reducer is dropped whole — its read, its part, its
// rider; one at a participant reads and forwards again, and the reducer drops
// the second part.
func (r *cmdRec) handleReconstruction() {
	cmd := &r.m.Cmd
	if r.reducer() {
		// Opened here and held by the record, not looked up again after the
		// read: if a fence or an epoch bump severed it while the drive read
		// was in flight, a second stateFor would open a reduction nobody ever
		// finishes.
		st := r.s.stateFor(cmd, cmd.FwdOffset, cmd.FwdLength)
		if st == nil || !st.anchor(cmd) {
			return
		}
		st.writeBack = false
		st.replyTo = r.m.From
		st.anchorArrived = true
		r.join(st)
		r.s.drainDeferred(st)
	}
	r.read(cmd.Offset, cmd.Length)
}

// reducer reports whether this bdev reduces the Reconstruction it serves.
func (r *cmdRec) reducer() bool { return NodeID(r.m.Cmd.NextDest) == r.s.id }

// readDone is the drive read's completion. When integrity is on it verifies
// the covering block checksums first: detected bit rot surfaces as a
// *backend.MediaError, indistinguishable from a drive URE, so one host-side
// recovery path serves both.
func (r *cmdRec) readDone(b parity.Buffer, err error) {
	s := r.s
	if err == nil && s.integ != nil {
		if badOff, badLen, ok := s.integ.Verify(r.rOff, r.rN, s.drive.Capacity(), s.peek); !ok {
			s.checksumErrors++
			b.Release()
			b, err = parity.Buffer{}, &backend.MediaError{Off: badOff, N: badLen}
		}
	}
	r.buf, r.err = b, err
	cmd := &r.m.Cmd
	switch cmd.Opcode {
	case nvmeof.OpRead:
		r.exec(s.cfg.Costs.PerIO, r.replyFn)
	case nvmeof.OpPartialWrite:
		r.partialRead()
	case nvmeof.OpParity:
		if err != nil {
			st := r.st
			cst, off, length := mediaStatus(err, st.absOff, st.length)
			s.complete(st.replyTo, st.vol, st.id, st.epoch, cst, off, length, parity.Buffer{})
			st.failed = true // the preload is counted in, failed
			r.arrive()
			break
		}
		r.exec(s.cfg.Costs.Xor(int(cmd.Length)), r.reduceFn)
	case nvmeof.OpReconstruction:
		r.reconstructionRead()
	}
	r.done()
}

// partialRead continues a PartialWrite after its drive read (over the write
// segment for RMW, the union otherwise).
func (r *cmdRec) partialRead() {
	s, cmd := r.s, &r.m.Cmd
	union := cmd.SGL[0]
	if r.err != nil {
		st, off, length := mediaStatus(r.err, r.rOff, r.rN)
		s.complete(r.m.From, cmd.NSID, cmd.ID, cmd.Epoch, st, off, length, parity.Buffer{})
		// The reducers are told too, or they would wait for this
		// contribution until a fence.
		s.sendContribution(cmd, st, parity.Buffer{}, cmd.FwdOffset, cmd.FwdLength, union.Off, union.Len)
		return
	}
	switch cmd.Subtype {
	case nvmeof.SubRMW:
		// The forward folds the new data into this bdev's own drive-read
		// buffer in place and hands the result on.
		r.exec(s.cfg.Costs.Xor(int(cmd.Length)), r.forwardFn)
	case nvmeof.SubRWWrite:
		// The drive-read buffer is this bdev's own: overlay it in place.
		r.buf.CopyAt(int(cmd.Offset-union.Off), r.m.Payload)
		if r.m.Payload.Elided() {
			r.buf.Release()
			r.buf = parity.Sized(r.buf.Len())
		}
		r.exec(s.cfg.Costs.Xor(int(union.Len)), r.forwardFn)
	case nvmeof.SubRWRead:
		r.exec(s.cfg.Costs.PerIO, r.forwardFn)
		return
	}
	if s.cfg.Pipelined {
		// Drive write and parity generation/forwarding overlap.
		r.writeCmd()
	} else {
		r.writeNext = true
	}
}

// forward sends a PartialWrite's contribution to its reducers, then starts
// the drive write when it waits for the forward.
func (r *cmdRec) forward() {
	cmd := &r.m.Cmd
	union := cmd.SGL[0]
	contrib := r.buf
	if cmd.Subtype == nvmeof.SubRMW {
		contrib = parity.XORInto(r.buf, r.m.Payload)
	}
	r.s.sendContribution(cmd, nvmeof.StatusSuccess, contrib, cmd.FwdOffset, cmd.FwdLength, union.Off, union.Len)
	if r.writeNext {
		r.writeCmd()
	}
	r.done()
}

// writeCmd writes a PartialWrite's segment — unless a fence or an epoch bump
// overtook the command while its drive read was in flight: then the write
// must not land.
func (r *cmdRec) writeCmd() {
	cmd := &r.m.Cmd
	if r.s.fencedOut(cmd.NSID, cmd.ID) || r.s.superseded(cmd.NSID, cmd.Epoch) {
		return
	}
	r.write(cmd.Offset, r.m.Payload)
}

// reconstructionRead continues a Reconstruction after its drive read.
func (r *cmdRec) reconstructionRead() {
	s, cmd := r.s, &r.m.Cmd
	peer := nvmeof.Command{
		ID: cmd.ID, Opcode: nvmeof.OpPeer, NSID: cmd.NSID, Epoch: cmd.Epoch,
		Offset: cmd.FwdOffset, Length: cmd.FwdLength,
		FwdOffset: cmd.FwdOffset, FwdLength: cmd.FwdLength,
		DataIdx: cmd.DataIdx,
	}
	if r.err != nil {
		st, off, length := mediaStatus(r.err, cmd.Offset, cmd.Length)
		s.complete(r.m.From, cmd.NSID, cmd.ID, cmd.Epoch, st, off, length, parity.Buffer{})
		// The reduction counts this participant in, failed.
		if r.reducer() {
			r.st.failed = true
			r.st.counted++
			r.finish()
			return
		}
		peer.Status = st
		s.fab.Send(s.id, NodeID(cmd.NextDest), peer, parity.Buffer{})
		return
	}
	// Decoupled return path: normal-read data goes straight home, as its own
	// copy — buf stays here for the reduction.
	if cmd.Subtype == nvmeof.SubAlsoRead {
		own := cmd.SGL[0]
		r.out = r.buf.Slice(int(own.Off-cmd.Offset), int(own.Len)).Clone()
		r.exec(s.cfg.Costs.PerIO, r.replyFn)
	}
	if r.reducer() {
		r.exec(r.foldCost(), r.reduceFn)
		return
	}
	// The contribution is the drive-read buffer itself when the read covered
	// exactly R; otherwise a copy of R's part of it.
	contrib := r.buf
	if rPart := r.buf.Slice(int(cmd.FwdOffset-cmd.Offset), int(cmd.FwdLength)); rPart.Len() != r.buf.Len() {
		contrib = rPart.Clone()
		r.buf.Release()
	}
	s.fab.Send(s.id, NodeID(cmd.NextDest), peer, contrib)
}

// reduce folds this command's part into its reduction: a Peer's payload, a
// Parity command's preload and host contribution, a reducer's own slice of
// its Reconstruction read.
func (r *cmdRec) reduce() {
	s, st, cmd := r.s, r.st, &r.m.Cmd
	switch cmd.Opcode {
	case nvmeof.OpPeer:
		if cmd.Status == nvmeof.StatusSuccess {
			s.reduceInto(st, r.m.Payload, cmd.FwdOffset, cmd.FwdLength, cmd.DataIdx)
		} else {
			st.failed = true
		}
		st.counted++
		r.finish()
	case nvmeof.OpParity:
		if cmd.Subtype == nvmeof.SubRMW {
			s.reduceInto(st, r.buf, cmd.Offset, cmd.Length, NoScale)
			r.buf.Release()
		}
		if r.m.Payload.Len() > 0 {
			s.reduceInto(st, r.m.Payload, cmd.FwdOffset, cmd.FwdLength, cmd.DataIdx)
		}
		r.arrive()
	case nvmeof.OpReconstruction:
		s.reduceInto(st, r.buf.Slice(int(cmd.FwdOffset-cmd.Offset), int(cmd.FwdLength)), cmd.FwdOffset, cmd.FwdLength, cmd.DataIdx)
		r.buf.Release()
		st.counted++
		r.finish()
	}
	r.done()
}

// finish implements Algorithm 2's finish(): when every expected partial
// result has been counted in (the anchor's WaitNum of distinct parts),
// persist or return the result. A failed reduction — a
// participant's read or this bdev's own failed, and the host already has the
// media error — recycles its accumulator and neither writes nor replies.
func (r *cmdRec) finish() {
	s, st := r.s, r.st
	if st.dead || s.fencedOut(st.vol, st.id) || s.superseded(st.vol, st.epoch) {
		return // already finished, or severed by a fence or epoch bump: never persist or reply
	}
	if !st.anchorArrived || st.counted != st.expected {
		return
	}
	if st.failed {
		s.sever(st)
		return
	}
	s.closeReduce(st)
	if !st.folded {
		st.acc = s.pool.Get(int(st.length)) // nothing folded: the result is zeros
	}
	if st.writeBack {
		r.write(st.absOff, st.acc)
		return
	}
	// Reconstruction: return the rebuilt segment to the host directly. It
	// leaves this controller for good, so it leaves the pool too.
	st.acc = st.acc.Disown()
	r.exec(s.cfg.Costs.PerIO, r.resultFn)
}

// writeDone is the drive write's completion.
func (r *cmdRec) writeDone(err error) {
	s, cmd := r.s, &r.m.Cmd
	if err == nil && s.integ != nil {
		s.integ.Update(r.wOff, r.wN, s.drive.Capacity(), s.peek)
		for _, blk := range r.stale {
			s.integ.Invalidate(blk)
		}
	}
	s.writeLanded(r.wSeq)
	switch {
	case r.st != nil:
		// A record in a reduction writes nothing but the reduction's result.
		s.pool.Put(r.st.acc) // the drive borrowed it until now
		r.err = err
		r.exec(s.cfg.Costs.PerIO, r.resultFn)
	case err != nil && cmd.Opcode == nvmeof.OpPartialWrite:
		s.complete(r.m.From, cmd.NSID, cmd.ID, cmd.Epoch, nvmeof.StatusError, cmd.Offset, cmd.Length, parity.Buffer{})
	default:
		r.err = err
		r.exec(s.cfg.Costs.PerIO, r.replyFn)
	}
	r.done()
}

// reply sends the command's own completion to its sender.
func (r *cmdRec) reply() {
	s, cmd := r.s, &r.m.Cmd
	switch cmd.Opcode {
	case nvmeof.OpRead:
		st, off, length := nvmeof.StatusSuccess, cmd.Offset, cmd.Length
		if r.err != nil {
			st, off, length = mediaStatus(r.err, cmd.Offset, cmd.Length)
		}
		s.complete(r.m.From, cmd.NSID, cmd.ID, cmd.Epoch, st, off, length, r.buf)
	case nvmeof.OpWrite:
		st := nvmeof.StatusSuccess
		if r.err != nil {
			st = nvmeof.StatusError
		}
		s.complete(r.m.From, cmd.NSID, cmd.ID, cmd.Epoch, st, cmd.Offset, int64(r.m.Payload.Len()), parity.Buffer{})
	case nvmeof.OpPartialWrite:
		// §5.3: the data bdev reports its own completion so the drive write
		// need not gate parity forwarding.
		s.complete(r.m.From, cmd.NSID, cmd.ID, cmd.Epoch, nvmeof.StatusSuccess, cmd.Offset, cmd.Length, parity.Buffer{})
	case nvmeof.OpReconstruction:
		own := cmd.SGL[0]
		s.completeSub(r.m.From, cmd.NSID, cmd.ID, cmd.Epoch, nvmeof.StatusSuccess, nvmeof.SubAlsoRead, own.Off, own.Len, r.out)
	}
	r.done()
}

// result sends a finished reduction's outcome to its host: the write-back's
// status for a parity update, the rebuilt segment for a reconstruction.
func (r *cmdRec) result() {
	s, st := r.s, r.st
	if st.writeBack {
		status := nvmeof.StatusSuccess
		if r.err != nil {
			status = nvmeof.StatusError
		}
		s.complete(st.replyTo, st.vol, st.id, st.epoch, status, st.absOff, st.length, parity.Buffer{})
	} else {
		s.completeSub(st.replyTo, st.vol, st.id, st.epoch, nvmeof.StatusSuccess, nvmeof.SubNoRead, st.absOff, st.length, st.acc)
	}
	r.done()
}
