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
	"draid/internal/slab"
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
	// cmds pools command records (servercmd.go), reductions the reduction
	// states: serving a capsule, or opening a reduction, allocates nothing
	// once warm.
	cmds       slab.Slab[cmdRec]
	reductions slab.Slab[reduceState]

	// pool recycles reduce accumulators. An accumulator is private to this
	// controller for its whole pooled life: it goes back when the drive write
	// that persists it calls back (the drive borrows it until then) or when
	// its reduction is severed or fails, and it is disowned — never recycled
	// — when it leaves for the host as a reconstructed segment.
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
	// ended remembers the newest reductions to end, oldest overwritten first,
	// so that a duplicated capsule arriving after its reduction is over is
	// dropped instead of opening it again: nothing would ever finish the
	// second one. endedIDs holds their op IDs apart, so that the scan every
	// new reduction makes reads one word per entry. lateAge is the most reductions this
	// server ended between a reduction's end and a late duplicate of one of
	// its capsules: how near a duplicate has come to outrunning the ring.
	endedIDs  [endedKeys]uint64
	ended     [endedKeys]endedKey
	endedNext int
	lateAge   atomic.Int64

	// integ holds the per-block protection information when cfg.Integrity
	// is set; checksumErrors counts reads it failed (detected bit rot).
	integ          *integrity.Store
	checksumErrors int64

	// fenced records, per volume, the highest command ID severed by an
	// OpFence: commands of that volume at or below the boundary belong to a
	// dead controller session and are discarded on arrival, and their
	// not-yet-submitted drive writes are dropped (§5.4 failover fencing).
	fenced map[uint32]uint64
	// wseq/wpending track drive writes in flight through cmdRec.write;
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

// endedKeys is how many ended reductions a server remembers. Both fabrics
// deliver a duplicate right behind its original; the one that trails is the
// Peer a re-executed PartialWrite or Reconstruction forwards after a second
// drive read. With one member's capsules duplicated every 20 µs under
// sim-paper-mix's three phases at QD 32, and in the chaos duplicate trials,
// a server had ended at most 2 other reductions by the time such a duplicate
// came in (seeds 1–3). TestLateDuplicatesStayInsideTheRing pins a quarter of
// the ring as the limit.
const endedKeys = 32

// endedKey is the rest of an ended reduction's key. The epoch tells a
// duplicate from the same op ID reused by a successor session at a higher
// epoch.
type endedKey struct {
	vol   uint32
	set   bool
	epoch uint64
}

// partKey names one part of a reduction: who sent it, where it lands and how
// it is scaled. A part whose key the reduction already holds is a duplicate.
type partKey struct {
	from    NodeID
	off     int64
	dataIdx uint16
}

// reduceState accumulates partial results for one reduction (parity update
// or data reconstruction) over the union segment [absOff, absOff+length).
// States are pooled per server; the reduce table keys them by reduceKey, and
// each keeps the keys of the parts it has admitted, so a duplicate folds
// nothing.
type reduceState struct {
	absOff int64
	length int64
	// acc is taken by the first contribution folded in (folded set), or by
	// finish if none was.
	acc    parity.Buffer
	folded bool
	// parts holds the key of every Peer admitted (admit). The anchor — a
	// Parity command, or the reducer's own Reconstruction, whose slice of
	// the read is the reducer's part — is not in parts: anchored admits it
	// once (anchor), so a duplicate never reads or counts a second time.
	// counted is how many parts are in, folded or failed, the reducer's own
	// slice included. expected is the anchor's WaitNum: the reduction
	// completes when the anchor has arrived (its parity preload, if any, is
	// in too) and counted reaches expected. Counting admitted parts rather
	// than arrivals is what keeps a duplicated part from standing in for a
	// missing one.
	parts         []partKey
	counted       int
	expected      int
	anchored      bool // the anchor command was admitted: a second one is a duplicate
	anchorArrived bool
	// writeBack: parity reductions persist the result to the drive;
	// reconstructions return it to the host instead (§6.1 decoupled paths).
	writeBack bool
	replyTo   NodeID
	vol       uint32
	id        uint64
	// epoch is the host epoch the reduction was opened under; an epoch bump
	// kills reductions of superseded epochs exactly as a fence does.
	epoch uint64
	// failed marks a reduction one of whose parts could not be read — a
	// participant's Peer came with a failing status, or this bdev's own read
	// (parity preload, reducer's segment) failed. It still counts every part
	// in, so it ends like any other, but finish recycles the accumulator and
	// neither writes nor replies: the host already has the media error.
	failed bool
	// dead marks a reduction that is over — finished, or severed by a fence
	// or an epoch bump. Command records that still hold the state (a parity
	// preload in flight, a deferred contribution) must neither complete it
	// again nor fold into its accumulator, which by then is lent to the
	// drive, on its way to the host, or back in the pool.
	dead bool
	// deferred holds the Peer records the BarrierReduce ablation buffers.
	deferred []*cmdRec
	// refs counts the holders of the state: the reduce table while the
	// reduction is open, and every command record taking part. The state goes
	// back to its slab when the last lets go, so no record ever sees it reused
	// under it; one a stranded record holds is never reused.
	refs int
}

// admit records a Peer's part, reporting false when the reduction already
// has it.
func (st *reduceState) admit(from NodeID, cmd *nvmeof.Command) bool {
	k := partKey{from: from, off: cmd.FwdOffset, dataIdx: cmd.DataIdx}
	for _, p := range st.parts {
		if p == k {
			return false
		}
	}
	st.parts = append(st.parts, k)
	return true
}

// anchor records the anchor command, reporting false for a duplicate.
func (st *reduceState) anchor(cmd *nvmeof.Command) bool {
	if st.anchored {
		return false
	}
	st.anchored, st.expected = true, int(cmd.WaitNum)
	return true
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
	s.cmds.New = s.makeRec
	fab.Register(id, s.handle)
	return s
}

// Drive returns the controller's drive (for tests and rebuild tooling).
func (s *ServerController) Drive() backend.Drive { return s.drive }

// BufferStats implements backend.BufferAccounting for the accumulator pool.
func (s *ServerController) BufferStats() parity.PoolStats { return s.pool.Stats() }

// OpenReductions reports how many reductions are waiting for contributions or
// their anchor command — zero on a drained array. Neither a media error (the
// failing participant still reports in) nor a duplicated capsule (its part is
// dropped, and so is one arriving after the reduction ended) strands one;
// only a partition does, or a duplicate so late that the server no longer
// remembers its reduction, until a fence or epoch bump severs it. Safe to
// call from any goroutine.
func (s *ServerController) OpenReductions() int { return int(s.openReduces.Load()) }

// ChecksumErrors reports how many reads failed end-to-end verification.
func (s *ServerController) ChecksumErrors() int64 { return s.checksumErrors }

// LateAge reports the most reductions this server ended between a
// reduction's end and a late duplicate of one of its capsules. Safe to call
// from any goroutine.
func (s *ServerController) LateAge() int { return int(s.lateAge.Load()) }

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
	// Capsules of the superseded epochs are rejected from now on; forget
	// their ended reductions, so that with enforcement injected away
	// (SetEpochChecks) a stale session reusing those op IDs is served as
	// before rather than taken for duplicates.
	for i := range s.ended {
		if k := &s.ended[i]; k.vol == vol && k.epoch < e {
			*k = endedKey{}
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

// dispatch routes an admitted command to its opcode handler. Data-path
// commands run as steps on a command record (servercmd.go).
func (s *ServerController) dispatch(m Message) {
	switch m.Cmd.Opcode {
	case nvmeof.OpHeartbeat:
		s.handleHeartbeat(m)
		return
	case nvmeof.OpFence:
		s.handleFence(m)
		return
	}
	r := s.newRec(m)
	switch m.Cmd.Opcode {
	case nvmeof.OpRead:
		r.handleRead()
	case nvmeof.OpWrite:
		r.handleWrite()
	case nvmeof.OpPartialWrite:
		r.handlePartialWrite()
	case nvmeof.OpParity:
		r.handleParity()
	case nvmeof.OpReconstruction:
		r.handleReconstruction()
	case nvmeof.OpPeer:
		r.handlePeer()
	default:
		panic(fmt.Sprintf("core: server %d: unexpected opcode %v", s.id, m.Cmd.Opcode))
	}
	r.done()
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

// sendContribution forwards a partial result to the P reducer and, for
// RAID-6, the Q reducer named in the command, handing contrib off. The
// contribution covers [fo, fo+fl) absolute; union is quoted so a
// late-arriving anchor command finds consistent state (§5.2). A failing
// status with no payload tells the reducers this bdev's part could not be
// read.
func (s *ServerController) sendContribution(cmd *nvmeof.Command, st nvmeof.Status, contrib parity.Buffer, fo, fl int64, unionOff, unionLen int64) {
	peer := nvmeof.Command{
		ID: cmd.ID, Opcode: nvmeof.OpPeer, NSID: cmd.NSID, Epoch: cmd.Epoch, Status: st,
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

// stateFor finds or opens the reduce state for a command's (volume, ID). It
// returns nil for a reduction that has already ended: the command is a
// duplicate and must be dropped.
func (s *ServerController) stateFor(cmd *nvmeof.Command, absOff, length int64) *reduceState {
	key := reduceKey{vol: cmd.NSID, id: cmd.ID}
	if st, ok := s.reduces[key]; ok {
		return st
	}
	for i, id := range s.endedIDs[:] {
		if id == cmd.ID && s.ended[i] == (endedKey{vol: cmd.NSID, set: true, epoch: cmd.Epoch}) {
			if age := int64(s.endedNext-1-i+endedKeys) % endedKeys; age > s.lateAge.Load() {
				s.lateAge.Store(age)
			}
			return nil
		}
	}
	st := s.reductions.Get()
	st.vol, st.id, st.epoch, st.absOff, st.length, st.replyTo = cmd.NSID, cmd.ID, cmd.Epoch, absOff, length, HostID
	st.refs = 1 // the table's
	s.reduces[key] = st
	s.openReduces.Add(1)
	return st
}

// release drops one holder of st; after the last, st goes back to the slab.
func (s *ServerController) release(st *reduceState) {
	if st.refs--; st.refs > 0 {
		return
	}
	*st = reduceState{parts: st.parts[:0], deferred: st.deferred[:0]}
	s.reductions.Put(st)
}

// reduceInto folds a contribution at [fo, fo+fl) into the accumulator,
// scaled by g^dataIdx unless dataIdx is NoScale (Algorithm 2,
// reduce_new_buffer — generalized to sub-ranges and RAID-6 Q).
//
// The first contribution decides what the accumulator is: a zeroed pool
// buffer if it is materialized, a size-only one if it is elided, so a
// size-only run never allocates one.
func (s *ServerController) reduceInto(st *reduceState, contrib parity.Buffer, fo, fl int64, dataIdx uint16) {
	if st.dead || st.failed {
		return // over, or its result will never be used: fold nothing more
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

// drainDeferred releases the Peer records buffered by the BarrierReduce
// ablation once the anchor command has arrived.
func (s *ServerController) drainDeferred(st *reduceState) {
	for i, r := range st.deferred {
		st.deferred[i] = nil
		r.applyPeer()
		r.done() // off the list
	}
	st.deferred = st.deferred[:0]
}

// sever kills a reduction that will never complete — cut by a fence or an
// epoch bump — or that finished failed, and recycles its accumulator and
// the contributions still held back for it. Command records that still
// hold st see dead and leave it alone; severing a reduction that is already
// over (one a fence cut after it finished) does nothing, so the accumulator
// goes back at most once and never while the drive still borrows it.
func (s *ServerController) sever(st *reduceState) {
	if st.dead {
		return
	}
	s.pool.Put(st.acc)
	for i, r := range st.deferred {
		st.deferred[i] = nil
		r.done() // off the list: the record releases its payload
	}
	st.deferred = st.deferred[:0]
	s.closeReduce(st)
}

// closeReduce ends an open reduction: out of the table, remembered as ended,
// and dead to any command record still holding it. The table lets go of st,
// so only a caller that holds it too may touch it afterwards.
func (s *ServerController) closeReduce(st *reduceState) {
	st.dead = true
	delete(s.reduces, reduceKey{vol: st.vol, id: st.id})
	s.openReduces.Add(-1)
	s.endedIDs[s.endedNext] = st.id
	s.ended[s.endedNext] = endedKey{vol: st.vol, set: true, epoch: st.epoch}
	s.endedNext = (s.endedNext + 1) % endedKeys
	s.release(st)
}
