package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"draid/internal/backend"
	"draid/internal/cpu"
	"draid/internal/integrity"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/trace"
)

// ServerConfig parameterizes a server-side controller.
type ServerConfig struct {
	Costs cpu.Costs
	// Pipelined enables the §5.3 parallel I/O pipeline: the drive write and
	// the partial-parity generation/forwarding proceed concurrently after
	// the drive read, and the bdev reports its completion to the host
	// independently. When false, stages run serially (the ablation).
	Pipelined bool
	// BarrierReduce disables the §5.2 non-blocking reduce: peer
	// contributions arriving before the anchoring Parity/Reconstruction
	// command are buffered instead of reduced immediately (the "barrier
	// between phases" design the paper rejects — an ablation knob).
	BarrierReduce bool
	// Integrity enables per-block CRC32C protection information alongside
	// the drive (the software stand-in for T10 DIF): every write updates the
	// covering checksums and every read verifies them, so silent bit rot is
	// detected at the server and reported to the host as a per-chunk erasure
	// (StatusMediaError), same as a drive URE. The CRCs are modeled as
	// hardware-offloaded (zero virtual-time cost), so enabling integrity
	// does not perturb timing until a fault is actually caught. Requires a
	// data-storing drive.
	Integrity bool
	// Tracer, when enabled, records capsule-arrival instants on TraceTrack
	// (registered by the cluster wiring). Nil disables.
	Tracer     *trace.Collector
	TraceTrack trace.Track
}

// ServerController is a dRAID bdev: the server-side controller managing one
// drive. It is RAID-unaware — every command carries absolute drive offsets
// and explicit forwarding destinations (§3: "A dRAID bdev is unaware of
// being in a RAID").
type ServerController struct {
	id    NodeID
	rt    backend.Runtime
	fab   backend.Transport
	drive backend.Drive
	core  backend.Executor
	cfg   ServerConfig

	// inbox queues delivered capsules for nextMsg (inbox.go), which is bound
	// once so that dispatching one allocates nothing.
	inbox   inbox
	nextMsg func()

	// pool recycles reduce accumulators. An accumulator is private to this
	// controller for its whole pooled life: it goes back when the drive write
	// that persists it calls back (the drive borrows it until then) or when
	// its reduction is severed, and it is disowned — never recycled — when it
	// leaves for the host as a reconstructed segment.
	pool *parity.Pool

	// Reduce-phase state (Algorithm 2), keyed by (volume, command ID). The
	// paper keys by offset, relying on single-writer-per-stripe admission;
	// command IDs are equivalent under that invariant and carry it
	// explicitly. The volume qualifier keeps co-tenant hosts — which assign
	// op IDs independently — from colliding in one bdev's reduce table.
	reduces map[reduceKey]*reduceState
	// openReduces mirrors len(reduces) for readers outside the event loop
	// (the quiescence leak check).
	openReduces atomic.Int64

	// integ holds the per-block protection information when cfg.Integrity
	// is set; checksumErrors counts reads it failed (detected bit rot).
	integ          *integrity.Store
	checksumErrors int64

	// fenced records, per volume, the highest command ID severed by an
	// OpFence: commands of that volume at or below the boundary belong to a
	// dead controller session and are discarded on arrival, and their
	// not-yet-submitted drive writes are dropped (§5.4 failover fencing).
	fenced map[uint32]uint64
	// wseq/wpending track drive writes in flight through writeDrive;
	// fences barrier on the writes pending at their arrival.
	wseq     uint64
	wpending map[uint64]struct{}
	barriers []*fenceBarrier

	// epochs records, per volume, the highest host epoch seen on a capsule:
	// the consensus-free membership fence. Commands below it are rejected
	// with StatusStaleEpoch — a partitioned predecessor can never corrupt
	// state after a takeover, whether or not the replacement got an explicit
	// OpFence through. Volumes absent from the map (epoch 0 on the wire) run
	// with fencing off, byte-identical to previous releases.
	epochs map[uint32]uint64
	// epochHold queues a volume's commands while an epoch bump waits out the
	// predecessor epoch's in-flight drive writes — the implicit barrier that
	// demotes the explicit Fence verb to a latency optimization. Presence of
	// the key marks the hold; messages drain FIFO when the barrier fires.
	epochHold map[uint32][]Message
	// staleRejects counts stale-epoch rejections. Atomic: status surfaces
	// read it from outside the controller's event loop on the realtime
	// backend.
	staleRejects int64
	// epochChecksOff disables admitEpoch entirely — every capsule is
	// dispatched regardless of its epoch, as if this bdev predated the
	// membership layer. Exists for the chaos harness's "teeth" mode, which
	// must reproduce the stale-destage corruption that epoch fencing
	// prevents. Atomic: injected from outside the event loop.
	epochChecksOff atomic.Bool
}

// fenceBarrier waits for the drive writes that were in flight when a fence
// arrived (those numbered at or below seq) to land, then fires.
type fenceBarrier struct {
	seq       uint64
	remaining int
	fire      func()
}

// reduceKey names one reduction: the issuing volume plus its op ID.
type reduceKey struct {
	vol uint32
	id  uint64
}

// reduceState accumulates partial results for one reduction (parity update
// or data reconstruction) over the union segment [absOff, absOff+length).
type reduceState struct {
	absOff int64
	length int64
	// acc is taken by the first contribution folded in (folded set), or by
	// finish if none was.
	acc    parity.Buffer
	folded bool
	// counter implements the paper's wait_num trick: each Peer contribution
	// decrements it; the anchoring Parity/Reconstruction command adds its
	// WaitNum. The reduction completes when the anchor has arrived, any
	// preload finished, and counter is zero.
	counter        int
	anchorArrived  bool
	preloadPending bool
	// writeBack: parity reductions persist the result to the drive;
	// reconstructions return it to the host instead (§6.1 decoupled paths).
	writeBack bool
	replyTo   NodeID
	vol       uint32
	id        uint64
	// epoch is the host epoch the reduction was opened under; an epoch bump
	// kills reductions of superseded epochs exactly as a fence does.
	epoch uint64
	// dead marks a reduction that is over — finished, or severed by a fence
	// or an epoch bump. In-flight closures that still hold the state (a
	// duplicated anchor's parity preload, a deferred contribution) must
	// neither complete it again nor fold into its accumulator, which by then
	// is lent to the drive, on its way to the host, or back in the pool.
	dead bool
	// deferred holds contributions buffered by the BarrierReduce ablation.
	deferred []func()
}

// NewServer creates a server-side controller and registers it on the
// transport. It is backend-agnostic: rt, fab, drive, and core may belong to
// the deterministic simulation or to the real-time backend.
func NewServer(id NodeID, rt backend.Runtime, fab backend.Transport, drive backend.Drive, core backend.Executor, cfg ServerConfig) *ServerController {
	s := &ServerController{
		id: id, rt: rt, fab: fab, drive: drive, core: core, cfg: cfg,
		reduces:   make(map[reduceKey]*reduceState),
		pool:      parity.NewPool(),
		fenced:    make(map[uint32]uint64),
		wpending:  make(map[uint64]struct{}),
		epochs:    make(map[uint32]uint64),
		epochHold: make(map[uint32][]Message),
	}
	if cfg.Integrity {
		if !drive.StoresData() {
			panic("core: integrity requires a data-storing drive (StoreData)")
		}
		s.integ = integrity.NewStore(integrity.DefaultBlockSize)
	}
	s.nextMsg = s.applyNext
	fab.Register(id, s.handle)
	return s
}

// Drive returns the controller's drive (for tests and rebuild tooling).
func (s *ServerController) Drive() backend.Drive { return s.drive }

// BufferStats implements backend.BufferAccounting for the accumulator pool.
func (s *ServerController) BufferStats() parity.PoolStats { return s.pool.Stats() }

// OpenReductions reports how many reductions are waiting for contributions or
// their anchor command — zero on a drained, healthy array; what a partition
// or a duplicated capsule strands stays until a fence or epoch bump severs
// it. Safe to call from any goroutine.
func (s *ServerController) OpenReductions() int { return int(s.openReduces.Load()) }

// ChecksumErrors reports how many reads failed end-to-end verification.
func (s *ServerController) ChecksumErrors() int64 { return s.checksumErrors }

// StaleRejects reports how many commands this bdev rejected for carrying a
// superseded host epoch. Safe to call from any goroutine.
func (s *ServerController) StaleRejects() int64 { return atomic.LoadInt64(&s.staleRejects) }

// VolumeEpoch reports the highest host epoch seen for a volume (0 when the
// volume has never sent an epoch-stamped capsule). Test/status surface; call
// from the controller's loop.
func (s *ServerController) VolumeEpoch(vol uint32) uint64 { return s.epochs[vol] }

// SetEpochChecks enables or disables this bdev's epoch enforcement. Disabling
// it is a deliberate fault injection (chaos "teeth" mode): stale hosts' writes
// are applied instead of rejected, reproducing the corruption the membership
// layer exists to prevent. Safe to call from any goroutine.
func (s *ServerController) SetEpochChecks(on bool) { s.epochChecksOff.Store(!on) }

// peek adapts the drive's synchronous byte access for the checksum store.
func (s *ServerController) peek(off, n int64) []byte { return s.drive.PeekSync(off, n) }

// readVerified reads [off, off+n) and, when integrity is on, verifies the
// covering block checksums before handing the payload up: detected bit rot
// surfaces as a *backend.MediaError, indistinguishable from a drive URE, so
// one host-side recovery path serves both.
func (s *ServerController) readVerified(off, n int64, cb func(parity.Buffer, error)) {
	s.drive.Read(off, n, func(b parity.Buffer, err error) {
		if err == nil && s.integ != nil {
			if badOff, badLen, ok := s.integ.Verify(off, n, s.drive.Capacity(), s.peek); !ok {
				s.checksumErrors++
				b.Release()
				cb(parity.Buffer{}, &backend.MediaError{Off: badOff, N: badLen})
				return
			}
		}
		cb(b, err)
	})
}

// writeDrive writes and, when integrity is on, refreshes the covering block
// checksums from the stored bytes once the write lands.
//
// Edge blocks only partially covered by the write keep slack bytes the
// writer never saw. Recomputing their checksum blindly would absorb any
// corruption sitting in that slack into a "valid" checksum — laundering bit
// rot into data every later read trusts. So those blocks are verified
// against their pre-write content first, and a block that fails stays
// poisoned after the write: reads keep reporting it, and the host's
// block-aligned repair path rewrites it whole with reconstructed bytes.
func (s *ServerController) writeDrive(off int64, b parity.Buffer, cb func(error)) {
	n := int64(b.Len())
	var stale []int64
	if s.integ != nil && n > 0 {
		capacity := s.drive.Capacity()
		bs := s.integ.BlockSize()
		check := func(blk int64) {
			bEnd := blk + bs
			if bEnd > capacity {
				bEnd = capacity
			}
			if blk >= off && bEnd <= off+n {
				return // fully covered: the write defines the whole block
			}
			if _, _, ok := s.integ.Verify(blk, bEnd-blk, capacity, s.peek); !ok {
				stale = append(stale, blk)
			}
		}
		head := off - off%bs
		tail := (off + n - 1) - (off+n-1)%bs
		check(head)
		if tail != head {
			check(tail)
		}
	}
	s.wseq++
	seq := s.wseq
	s.wpending[seq] = struct{}{}
	s.drive.Write(off, b, func(err error) {
		if err == nil && s.integ != nil {
			s.integ.Update(off, n, s.drive.Capacity(), s.peek)
			for _, blk := range stale {
				s.integ.Invalidate(blk)
			}
		}
		s.writeLanded(seq)
		cb(err)
	})
}

// writeLanded retires one drive write and releases any fence or epoch
// barrier whose pre-barrier writes have all landed. Barriers are detached
// before firing: an epoch barrier's fire dispatches queued commands, which
// may install new barriers of their own.
func (s *ServerController) writeLanded(seq uint64) {
	delete(s.wpending, seq)
	current := s.barriers
	s.barriers = nil
	var fires []*fenceBarrier
	for _, b := range current {
		if seq <= b.seq {
			b.remaining--
		}
		if b.remaining <= 0 {
			fires = append(fires, b)
		} else {
			s.barriers = append(s.barriers, b)
		}
	}
	for _, b := range fires {
		b.fire()
	}
}

// releaseBarriers fires every pending barrier: the drive has failed, so the
// writes they were waiting out are swallowed (their callbacks never run) and
// can never take effect.
func (s *ServerController) releaseBarriers() {
	s.wpending = make(map[uint64]struct{})
	pending := s.barriers
	s.barriers = nil
	for _, b := range pending {
		b.fire()
	}
}

// fencedOut reports whether a command belongs to a controller session a
// fence has severed: its effects must be dropped, not executed.
func (s *ServerController) fencedOut(vol uint32, id uint64) bool {
	bound, ok := s.fenced[vol]
	return ok && id <= bound
}

// superseded reports whether a command admitted at epoch e has been
// overtaken by a takeover: the volume's epoch moved past it while its drive
// I/O was still in flight. Mirrors the mid-command fencedOut checks.
func (s *ServerController) superseded(vol uint32, e uint64) bool {
	return e != 0 && e < s.epochs[vol]
}

// mediaStatus classifies a drive/verify error for a completion capsule:
// media errors map to StatusMediaError echoing the precise unreadable range
// (falling back to the whole accessed range), everything else to
// StatusError over the accessed range.
func mediaStatus(err error, off, length int64) (nvmeof.Status, int64, int64) {
	var me *backend.MediaError
	if errors.As(err, &me) {
		return nvmeof.StatusMediaError, me.Off, me.N
	}
	if errors.Is(err, backend.ErrMediaError) {
		return nvmeof.StatusMediaError, off, length
	}
	return nvmeof.StatusError, off, length
}

// handle queues an incoming capsule in the inbox for its per-message CPU
// slot.
func (s *ServerController) handle(m Message) {
	s.inbox.push(m)
	s.core.Exec(s.cfg.Costs.PerMsg, s.nextMsg)
}

// applyNext dispatches the oldest capsule in the inbox.
func (s *ServerController) applyNext() {
	m := s.inbox.pop()
	if t := s.cfg.Tracer; t.Enabled() {
		t.Instant(s.cfg.TraceTrack, "rpc", m.Cmd.SpanName()+"←"+fromName(m.From),
			trace.I64("id", int64(m.Cmd.ID)))
	}
	if m.Cmd.Opcode != nvmeof.OpFence && s.fencedOut(m.Cmd.NSID, m.Cmd.ID) {
		// A straggler from a fenced (dead) controller session — a command
		// still in the fabric when the fence arrived, or a peer contribution
		// triggered by one. Drop it; its issuer is gone.
		m.Payload.Release()
		return
	}
	if !s.admitEpoch(m) {
		return
	}
	s.dispatch(m)
}

// admitEpoch enforces the per-volume host epoch on an arriving command.
// It returns false when the command must not be dispatched now: rejected as
// stale, or queued behind an epoch-bump barrier.
func (s *ServerController) admitEpoch(m Message) bool {
	e := m.Cmd.Epoch
	if e == 0 {
		return true // epoch fencing off for this capsule: legacy behavior
	}
	if s.epochChecksOff.Load() {
		return true // teeth mode: enforcement injected away (SetEpochChecks)
	}
	vol := m.Cmd.NSID
	cur := s.epochs[vol]
	if e < cur {
		// A superseded host (partitioned through a takeover) is still
		// talking. Reject with a typed status so it learns to stand down;
		// peer contributions are dropped silently — their originator is
		// another bdev relaying the stale host's work, and the stale host's
		// own anchor command earns the typed answer.
		atomic.AddInt64(&s.staleRejects, 1)
		if m.Cmd.Opcode != nvmeof.OpPeer {
			s.complete(m.From, vol, m.Cmd.ID, e, nvmeof.StatusStaleEpoch, 0, 0, parity.Buffer{})
		}
		m.Payload.Release()
		return false
	}
	if hold, holding := s.epochHold[vol]; holding {
		// An epoch bump is still waiting out the predecessor's in-flight
		// drive writes; everything behind it queues FIFO.
		s.epochHold[vol] = append(hold, m)
		return false
	}
	if e > cur {
		s.bumpEpoch(vol, e)
		if _, holding := s.epochHold[vol]; holding {
			s.epochHold[vol] = append(s.epochHold[vol], m)
			return false
		}
	}
	return true
}

// bumpEpoch installs a higher host epoch for a volume: first contact from a
// replacement host implicitly fences every predecessor. Reductions opened
// under lower epochs are killed, and when predecessor drive writes are still
// in flight, a barrier holds the volume's traffic until they land — the same
// guarantee an explicit OpFence gives, without requiring one to arrive.
func (s *ServerController) bumpEpoch(vol uint32, e uint64) {
	s.epochs[vol] = e
	for _, st := range s.reduces {
		if st.vol == vol && st.epoch < e {
			s.sever(st)
		}
	}
	if s.drive.Failed() {
		// Swallowed writes never land; waiting on them would hang forever.
		s.releaseBarriers()
		return
	}
	if len(s.wpending) == 0 {
		return
	}
	s.epochHold[vol] = nil // presence marks the hold
	s.barriers = append(s.barriers, &fenceBarrier{seq: s.wseq, remaining: len(s.wpending), fire: func() {
		pending := s.epochHold[vol]
		delete(s.epochHold, vol)
		for _, qm := range pending {
			// Re-admit: the queue may hold a yet-newer epoch's first
			// command, or stragglers an interleaved bump made stale.
			if s.admitEpoch(qm) {
				s.dispatch(qm)
			}
		}
	}})
}

// dispatch routes an admitted command to its opcode handler.
func (s *ServerController) dispatch(m Message) {
	switch m.Cmd.Opcode {
	case nvmeof.OpRead:
		s.handleRead(m)
	case nvmeof.OpWrite:
		s.handleWrite(m)
	case nvmeof.OpPartialWrite:
		s.handlePartialWrite(m)
	case nvmeof.OpParity:
		s.handleParity(m)
	case nvmeof.OpReconstruction:
		s.handleReconstruction(m)
	case nvmeof.OpPeer:
		s.handlePeer(m)
	case nvmeof.OpHeartbeat:
		s.handleHeartbeat(m)
	case nvmeof.OpFence:
		s.handleFence(m)
	default:
		panic(fmt.Sprintf("core: server %d: unexpected opcode %v", s.id, m.Cmd.Opcode))
	}
}

// complete sends a completion capsule (optionally with payload) to dst. The
// subtype disambiguates the two §6.1 return paths at the host: SubAlsoRead
// marks a direct normal-read return, SubNoRead a reconstructed segment. The
// namespace and epoch are echoed from the triggering command so the host
// endpoint's demux can route the completion to the owning volume's
// controller — and so a replacement host can discard completions addressed
// to the predecessor epoch it seized.
func (s *ServerController) complete(dst NodeID, ns uint32, id, epoch uint64, st nvmeof.Status, off, length int64, payload parity.Buffer) {
	s.completeSub(dst, ns, id, epoch, st, nvmeof.SubNone, off, length, payload)
}

func (s *ServerController) completeSub(dst NodeID, ns uint32, id, epoch uint64, st nvmeof.Status, sub nvmeof.Subtype, off, length int64, payload parity.Buffer) {
	cmd := nvmeof.Command{ID: id, Opcode: nvmeof.OpCompletion, NSID: ns, Status: st, Subtype: sub, Offset: off, Length: length, Epoch: epoch}
	s.fab.Send(s.id, dst, cmd, payload)
}

// handleHeartbeat answers a liveness probe. A healthy bdev completes with
// success, a failed drive with error status; a down node never gets here
// (the fabric drops its messages) and the probe times out at the host.
func (s *ServerController) handleHeartbeat(m Message) {
	st := nvmeof.StatusSuccess
	if s.drive.Failed() {
		st = nvmeof.StatusError
	}
	s.complete(m.From, m.Cmd.NSID, m.Cmd.ID, m.Cmd.Epoch, st, 0, 0, parity.Buffer{})
}

// handleFence severs a dead controller session (§5.4): every command of the
// fence's namespace with an ID below the fence's own — the fabric delivers
// in order, so anything the crashed controller sent has already arrived or
// carries a lower ID — is discarded from now on, its open reductions are
// killed, and the fence completes only after the drive writes in flight at
// its arrival have landed. The replacement controller fences every bdev
// before resyncing dirty stripes, so no straggler write can land after the
// resync read the data it recomputed parity from.
func (s *ServerController) handleFence(m Message) {
	vol, bound := m.Cmd.NSID, m.Cmd.ID-1
	if cur, ok := s.fenced[vol]; !ok || bound > cur {
		s.fenced[vol] = bound
	}
	for _, st := range s.reduces {
		if st.vol == vol && st.id <= bound {
			s.sever(st)
		}
	}
	done := func() {
		s.complete(m.From, m.Cmd.NSID, m.Cmd.ID, m.Cmd.Epoch, nvmeof.StatusSuccess, 0, 0, parity.Buffer{})
	}
	if s.drive.Failed() {
		// A failed drive swallows writes (and their completions) instead of
		// landing them: nothing pending can take effect, so the barrier is
		// moot. Forget the swallowed writes — their callbacks never run —
		// and release any barriers (epoch holds) waiting on them.
		s.releaseBarriers()
		done()
		return
	}
	if len(s.wpending) == 0 {
		done()
		return
	}
	s.barriers = append(s.barriers, &fenceBarrier{seq: s.wseq, remaining: len(s.wpending), fire: done})
}

// handleRead serves a standard NVMe-oF read.
func (s *ServerController) handleRead(m Message) {
	s.readVerified(m.Cmd.Offset, m.Cmd.Length, func(b parity.Buffer, err error) {
		s.core.Exec(s.cfg.Costs.PerIO, func() {
			st, off, length := nvmeof.StatusSuccess, m.Cmd.Offset, m.Cmd.Length
			if err != nil {
				st, off, length = mediaStatus(err, m.Cmd.Offset, m.Cmd.Length)
			}
			s.complete(m.From, m.Cmd.NSID, m.Cmd.ID, m.Cmd.Epoch, st, off, length, b)
		})
	})
}

// handleWrite serves a standard NVMe-oF write.
func (s *ServerController) handleWrite(m Message) {
	s.writeDrive(m.Cmd.Offset, m.Payload, func(err error) {
		s.core.Exec(s.cfg.Costs.PerIO, func() {
			st := nvmeof.StatusSuccess
			if err != nil {
				st = nvmeof.StatusError
			}
			s.complete(m.From, m.Cmd.NSID, m.Cmd.ID, m.Cmd.Epoch, st, m.Cmd.Offset, int64(m.Payload.Len()), parity.Buffer{})
		})
	})
}

// sendContribution forwards a partial result to the P reducer and, for
// RAID-6, the Q reducer named in the command, handing contrib off. The
// contribution covers [fo, fo+fl) absolute; union is quoted so a
// late-arriving anchor command finds consistent state (§5.2).
func (s *ServerController) sendContribution(cmd nvmeof.Command, contrib parity.Buffer, fo, fl int64, unionOff, unionLen int64) {
	peer := nvmeof.Command{
		ID: cmd.ID, Opcode: nvmeof.OpPeer, NSID: cmd.NSID, Epoch: cmd.Epoch,
		Offset: unionOff, Length: unionLen,
		FwdOffset: fo, FwdLength: fl,
		DataIdx: NoScale,
	}
	qContrib := contrib
	if cmd.NextDest != NoDest && cmd.NextDest2 != NoDest {
		qContrib = contrib.Clone() // two reducers: each owns its copy, taken before the first is handed off
	}
	if cmd.NextDest != NoDest {
		s.fab.Send(s.id, NodeID(cmd.NextDest), peer, contrib)
	}
	if cmd.NextDest2 != NoDest {
		qPeer := peer
		qPeer.DataIdx = cmd.DataIdx // reducer scales by g^DataIdx
		s.fab.Send(s.id, NodeID(cmd.NextDest2), qPeer, qContrib)
	}
}

// handlePartialWrite implements Algorithm 1 (HandleDataChunk).
//
// Capsule conventions (all offsets absolute drive offsets):
//   - Offset/Length + Payload: the write segment (Length 0 for RW_READ)
//   - FwdOffset/FwdLength: this bdev's contribution segment
//     (== write segment for RMW; == union for RW_WRITE/RW_READ)
//   - SGL[0]: the union segment, quoted in Peer messages
//   - NextDest / NextDest2 / DataIdx: reducer routing
func (s *ServerController) handlePartialWrite(m Message) {
	cmd := m.Cmd
	if len(cmd.SGL) != 1 {
		panic("core: PartialWrite without union SGL")
	}
	union := cmd.SGL[0]

	writeDone := func() {
		s.core.Exec(s.cfg.Costs.PerIO, func() {
			// §5.3: the data bdev reports its own completion so the drive
			// write need not gate parity forwarding.
			s.complete(m.From, cmd.NSID, cmd.ID, cmd.Epoch, nvmeof.StatusSuccess, cmd.Offset, cmd.Length, parity.Buffer{})
		})
	}

	switch cmd.Subtype {
	case nvmeof.SubRMW:
		// Read old data over the write segment; delta = old ⊕ new.
		s.readVerified(cmd.Offset, cmd.Length, func(oldB parity.Buffer, err error) {
			if err != nil {
				st, off, length := mediaStatus(err, cmd.Offset, cmd.Length)
				s.complete(m.From, cmd.NSID, cmd.ID, cmd.Epoch, st, off, length, parity.Buffer{})
				return
			}
			forward := func(next func()) {
				s.core.Exec(s.cfg.Costs.Xor(int(cmd.Length)), func() {
					// oldB is this bdev's own drive-read buffer; fold the new
					// data in place and hand the result on.
					delta := parity.XORInto(oldB, m.Payload)
					s.sendContribution(cmd, delta, cmd.FwdOffset, cmd.FwdLength, union.Off, union.Len)
					if next != nil {
						next()
					}
				})
			}
			write := func(next func()) {
				if s.fencedOut(cmd.NSID, cmd.ID) || s.superseded(cmd.NSID, cmd.Epoch) {
					return // fenced or superseded mid-command: the write must not land
				}
				s.writeDrive(cmd.Offset, m.Payload, func(werr error) {
					if werr != nil {
						s.complete(m.From, cmd.NSID, cmd.ID, cmd.Epoch, nvmeof.StatusError, cmd.Offset, cmd.Length, parity.Buffer{})
						return
					}
					writeDone()
					if next != nil {
						next()
					}
				})
			}
			if s.cfg.Pipelined {
				// Drive write and parity generation/forwarding overlap.
				forward(nil)
				write(nil)
			} else {
				forward(func() { write(nil) })
			}
		})

	case nvmeof.SubRWWrite:
		// Contribution = stored data over the union, overlaid with the new
		// write segment. Skip the drive read when the write covers the
		// whole union.
		buildAndGo := func(contrib parity.Buffer) {
			s.core.Exec(s.cfg.Costs.Xor(int(union.Len)), func() {
				s.sendContribution(cmd, contrib, cmd.FwdOffset, cmd.FwdLength, union.Off, union.Len)
			})
		}
		if cmd.Offset == union.Off && cmd.Length == union.Len {
			buildAndGo(m.Payload.Clone())
			s.writeDrive(cmd.Offset, m.Payload, func(err error) {
				if err != nil {
					s.complete(m.From, cmd.NSID, cmd.ID, cmd.Epoch, nvmeof.StatusError, cmd.Offset, cmd.Length, parity.Buffer{})
					return
				}
				writeDone()
			})
			return
		}
		s.readVerified(union.Off, union.Len, func(oldB parity.Buffer, err error) {
			if err != nil {
				st, off, length := mediaStatus(err, union.Off, union.Len)
				s.complete(m.From, cmd.NSID, cmd.ID, cmd.Epoch, st, off, length, parity.Buffer{})
				return
			}
			contrib := oldB // this bdev's own drive-read buffer; overlay in place
			contrib.CopyAt(int(cmd.Offset-union.Off), m.Payload)
			if m.Payload.Elided() {
				contrib.Release()
				contrib = parity.Sized(contrib.Len())
			}
			write := func() {
				if s.fencedOut(cmd.NSID, cmd.ID) || s.superseded(cmd.NSID, cmd.Epoch) {
					return // fenced or superseded mid-command: the write must not land
				}
				s.writeDrive(cmd.Offset, m.Payload, func(werr error) {
					if werr != nil {
						s.complete(m.From, cmd.NSID, cmd.ID, cmd.Epoch, nvmeof.StatusError, cmd.Offset, cmd.Length, parity.Buffer{})
						return
					}
					writeDone()
				})
			}
			if s.cfg.Pipelined {
				buildAndGo(contrib)
				write()
			} else {
				s.core.Exec(s.cfg.Costs.Xor(int(union.Len)), func() {
					s.sendContribution(cmd, contrib, cmd.FwdOffset, cmd.FwdLength, union.Off, union.Len)
					write()
				})
			}
		})

	case nvmeof.SubRWRead:
		// Contribution = stored data over the union; nothing written, no
		// host callback (the reducer's completion covers this bdev).
		s.readVerified(union.Off, union.Len, func(oldB parity.Buffer, err error) {
			if err != nil {
				st, off, length := mediaStatus(err, union.Off, union.Len)
				s.complete(m.From, cmd.NSID, cmd.ID, cmd.Epoch, st, off, length, parity.Buffer{})
				return
			}
			s.core.Exec(s.cfg.Costs.PerIO, func() {
				s.sendContribution(cmd, oldB, cmd.FwdOffset, cmd.FwdLength, union.Off, union.Len)
			})
		})

	default:
		panic(fmt.Sprintf("core: PartialWrite subtype %v", cmd.Subtype))
	}
}

// stateFor finds or creates the reduce state for a command's (volume, ID).
func (s *ServerController) stateFor(cmd nvmeof.Command, absOff, length int64) *reduceState {
	key := reduceKey{vol: cmd.NSID, id: cmd.ID}
	st, ok := s.reduces[key]
	if !ok {
		st = &reduceState{vol: cmd.NSID, id: cmd.ID, epoch: cmd.Epoch, absOff: absOff, length: length, replyTo: HostID}
		s.reduces[key] = st
		s.openReduces.Add(1)
	}
	return st
}

// reduceInto folds a contribution at [fo, fo+fl) into the accumulator,
// scaled by g^dataIdx unless dataIdx is NoScale (Algorithm 2,
// reduce_new_buffer — generalized to sub-ranges and RAID-6 Q).
//
// The first contribution decides what the accumulator is: a zeroed pool
// buffer if it is materialized, a size-only one if it is elided, so a
// size-only run never allocates one.
func (s *ServerController) reduceInto(st *reduceState, contrib parity.Buffer, fo, fl int64, dataIdx uint16) {
	if st.dead {
		return // over: the accumulator is no longer st's to write to
	}
	if fo < st.absOff || fo+fl > st.absOff+st.length {
		panic(fmt.Sprintf("core: contribution [%d,%d) outside union [%d,%d)", fo, fo+fl, st.absOff, st.absOff+st.length))
	}
	if !st.folded {
		st.folded = true
		if contrib.Elided() {
			st.acc = parity.Sized(int(st.length))
		} else {
			st.acc = s.pool.Get(int(st.length))
		}
	}
	if st.acc.Elided() {
		return // poisoned: the result is size-only whatever else arrives
	}
	dst := st.acc.Slice(int(fo-st.absOff), int(fl))
	var merged parity.Buffer
	if dataIdx == NoScale {
		merged = parity.XORInto(dst, contrib)
	} else {
		merged = parity.MulAddInto(dst, contrib, parity.QCoeff(int(dataIdx)))
	}
	if merged.Elided() {
		// An elided contribution poisons the whole accumulator. Nothing else
		// holds its storage, so it goes back to the pool.
		s.pool.Put(st.acc)
		st.acc = parity.Sized(int(st.length))
	}
}

// handlePeer implements the Peer-arrival half of Algorithm 2
// (handle_peer_partial_parity). Peers may arrive before the anchoring
// Parity/Reconstruction command; state is created on demand.
func (s *ServerController) handlePeer(m Message) {
	cmd := m.Cmd
	st := s.stateFor(cmd, cmd.Offset, cmd.Length)
	apply := func() {
		cost := s.cfg.Costs.Xor(int(cmd.FwdLength))
		if cmd.DataIdx != NoScale {
			cost = s.cfg.Costs.Gf(int(cmd.FwdLength))
		}
		s.core.Exec(cost, func() {
			s.reduceInto(st, m.Payload, cmd.FwdOffset, cmd.FwdLength, cmd.DataIdx)
			m.Payload.Release() // folded in: the contribution's last use
			st.counter--
			s.finish(st)
		})
	}
	if s.cfg.BarrierReduce && !st.anchorArrived {
		st.deferred = append(st.deferred, apply)
		return
	}
	apply()
}

// handleParity implements the host-command half of Algorithm 2
// (handle_host_parity). RMW preloads the stored parity chunk; reconstruct
// writes skip the preload. A payload on the Parity command is the host's own
// contribution (degraded writes where the host supplies the failed chunk's
// new data).
func (s *ServerController) handleParity(m Message) {
	cmd := m.Cmd
	st := s.stateFor(cmd, cmd.Offset, cmd.Length)
	st.writeBack = true
	st.replyTo = m.From

	hostContrib := func() {
		if m.Payload.Len() > 0 {
			s.reduceInto(st, m.Payload, cmd.FwdOffset, cmd.FwdLength, cmd.DataIdx)
		}
	}

	if cmd.Subtype == nvmeof.SubRMW {
		st.preloadPending = true
		s.readVerified(cmd.Offset, cmd.Length, func(oldB parity.Buffer, err error) {
			if err != nil {
				cst, off, length := mediaStatus(err, st.absOff, st.length)
				s.complete(st.replyTo, st.vol, st.id, st.epoch, cst, off, length, parity.Buffer{})
				s.sever(st)
				return
			}
			s.core.Exec(s.cfg.Costs.Xor(int(cmd.Length)), func() {
				s.reduceInto(st, oldB, cmd.Offset, cmd.Length, NoScale)
				oldB.Release()
				hostContrib()
				st.preloadPending = false
				st.counter += int(cmd.WaitNum)
				st.anchorArrived = true
				s.drainDeferred(st)
				s.finish(st)
			})
		})
		return
	}
	s.core.Exec(s.cfg.Costs.Xor(int(cmd.FwdLength)), func() {
		hostContrib()
		st.counter += int(cmd.WaitNum)
		st.anchorArrived = true
		s.drainDeferred(st)
		s.finish(st)
	})
}

// drainDeferred releases contributions buffered by the BarrierReduce
// ablation once the anchor command has arrived.
func (s *ServerController) drainDeferred(st *reduceState) {
	pending := st.deferred
	st.deferred = nil
	for _, fn := range pending {
		fn()
	}
}

// sever kills a reduction that will never complete — cut by a fence or an
// epoch bump, or failed by its parity preload — and recycles its accumulator.
// In-flight closures that still hold st see dead and leave it alone; severing
// a reduction that is already over (a duplicated anchor's second preload
// failing, a preload failing after a fence cut it or after the first anchor
// finished it) does nothing, so the accumulator goes back at most once and
// never while the drive still borrows it.
func (s *ServerController) sever(st *reduceState) {
	if s.closeReduce(st) {
		s.pool.Put(st.acc)
	}
}

// closeReduce ends a reduction: out of the table, and dead to any closure
// still holding it. It reports false, and changes nothing, when st is already
// over — by then the table slot may belong to a newer reduction of the same
// key.
func (s *ServerController) closeReduce(st *reduceState) bool {
	if st.dead {
		return false
	}
	st.dead = true
	delete(s.reduces, reduceKey{vol: st.vol, id: st.id})
	s.openReduces.Add(-1)
	return true
}

// finish implements Algorithm 2's finish(): when every expected partial
// result has been folded in (counter back to zero after the anchor's
// WaitNum), persist or return the result.
func (s *ServerController) finish(st *reduceState) {
	if st.dead || s.fencedOut(st.vol, st.id) || s.superseded(st.vol, st.epoch) {
		return // already finished, or severed by a fence or epoch bump: never persist or reply
	}
	if !st.anchorArrived || st.preloadPending || st.counter != 0 {
		return
	}
	s.closeReduce(st)
	if !st.folded {
		st.acc = s.pool.Get(int(st.length)) // nothing folded: the result is zeros
	}
	if st.writeBack {
		s.writeDrive(st.absOff, st.acc, func(err error) {
			s.pool.Put(st.acc) // the drive borrowed it until now
			st2 := nvmeof.StatusSuccess
			if err != nil {
				st2 = nvmeof.StatusError
			}
			s.core.Exec(s.cfg.Costs.PerIO, func() {
				s.complete(st.replyTo, st.vol, st.id, st.epoch, st2, st.absOff, st.length, parity.Buffer{})
			})
		})
		return
	}
	// Reconstruction: return the rebuilt segment to the host directly. It
	// leaves this controller for good, so it leaves the pool too.
	rebuilt := st.acc.Disown()
	s.core.Exec(s.cfg.Costs.PerIO, func() {
		s.completeSub(st.replyTo, st.vol, st.id, st.epoch, nvmeof.StatusSuccess, nvmeof.SubNoRead, st.absOff, st.length, rebuilt)
	})
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
func (s *ServerController) handleReconstruction(m Message) {
	cmd := m.Cmd
	isReducer := NodeID(cmd.NextDest) == s.id
	var st *reduceState
	if isReducer {
		st = s.stateFor(cmd, cmd.FwdOffset, cmd.FwdLength)
		st.writeBack = false
		st.replyTo = m.From
		st.counter += int(cmd.WaitNum)
		st.anchorArrived = true
		s.drainDeferred(st)
	}
	s.readVerified(cmd.Offset, cmd.Length, func(b parity.Buffer, err error) {
		if err != nil {
			st, off, length := mediaStatus(err, cmd.Offset, cmd.Length)
			s.complete(m.From, cmd.NSID, cmd.ID, cmd.Epoch, st, off, length, parity.Buffer{})
			return
		}
		// Decoupled return path: normal-read data goes straight home, as its
		// own copy — b stays here for the reduction.
		if cmd.Subtype == nvmeof.SubAlsoRead {
			own := cmd.SGL[0]
			ownB := b.Slice(int(own.Off-cmd.Offset), int(own.Len)).Clone()
			s.core.Exec(s.cfg.Costs.PerIO, func() {
				s.completeSub(m.From, cmd.NSID, cmd.ID, cmd.Epoch, nvmeof.StatusSuccess, nvmeof.SubAlsoRead, own.Off, own.Len, ownB)
			})
		}
		rPart := b.Slice(int(cmd.FwdOffset-cmd.Offset), int(cmd.FwdLength))
		if isReducer {
			// st as opened above, not looked up again: if a fence or an epoch
			// bump severed it while the drive read was in flight, a second
			// stateFor would open a reduction nobody ever finishes.
			cost := s.cfg.Costs.Xor(int(cmd.FwdLength))
			if cmd.DataIdx != NoScale {
				cost = s.cfg.Costs.Gf(int(cmd.FwdLength))
			}
			s.core.Exec(cost, func() {
				s.reduceInto(st, rPart, cmd.FwdOffset, cmd.FwdLength, cmd.DataIdx)
				b.Release()
				st.counter--
				s.finish(st)
			})
			return
		}
		// The contribution is the drive-read buffer itself when the read
		// covered exactly R; otherwise a copy of R's part of it.
		contrib := b
		if rPart.Len() != b.Len() {
			contrib = rPart.Clone()
			b.Release()
		}
		peer := nvmeof.Command{
			ID: cmd.ID, Opcode: nvmeof.OpPeer, NSID: cmd.NSID, Epoch: cmd.Epoch,
			Offset: cmd.FwdOffset, Length: cmd.FwdLength,
			FwdOffset: cmd.FwdOffset, FwdLength: cmd.FwdLength,
			DataIdx: cmd.DataIdx,
		}
		s.fab.Send(s.id, NodeID(cmd.NextDest), peer, contrib)
	})
}
