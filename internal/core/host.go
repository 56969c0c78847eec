package core

import (
	"fmt"
	"sort"
	"strings"

	"draid/internal/backend"
	"draid/internal/blockdev"
	"draid/internal/cpu"
	"draid/internal/gf256"
	"draid/internal/integrity"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/placement"
	"draid/internal/raid"
	"draid/internal/recon"
	"draid/internal/sim"
	"draid/internal/slab"
	"draid/internal/trace"
)

// Config parameterizes a dRAID host controller.
type Config struct {
	Geometry raid.Geometry
	Costs    cpu.Costs
	// Volume names the virtual array this controller serves. Every capsule
	// it issues carries the ID in NSID, so N controllers can share the host
	// fabric endpoint and the servers' reduce state stays per-volume.
	// Volume 0 is the single-volume default.
	Volume VolumeID
	// DriveBase is the byte offset on every member drive at which this
	// volume's extent starts. A controller owns [DriveBase,
	// DriveBase+driveCapacity) of each drive rather than assuming the drive
	// from offset 0 — the indirection that lets volumes share drives.
	DriveBase int64
	// Layout maps (stripe, member) to (physical drive, offset). Nil selects
	// the classic contiguous placement.Fixed over DriveBase, which is
	// byte-identical to the pre-layout address arithmetic. A
	// placement.Dynamic layout (declustered) spreads the volume over more
	// drives than the stripe width and enables chunk-level relocation
	// (many-to-many rebuild, online drive add/remove).
	Layout placement.Layout
	// LayoutFor, when non-nil and Layout is nil, builds the layout once the
	// volume registry has assigned the extent window — the allocator calls
	// it with the final (DriveBase, extent) pair. This keeps layout
	// construction out of callers that don't know their base yet.
	LayoutFor func(base, extent int64) placement.Layout
	// HostCores sizes the host's reactor pool (default 4).
	HostCores int
	// Deadline bounds each stripe operation (§5.4). Zero means 1s.
	Deadline sim.Duration
	// Selector picks degraded-read reducers; nil means random.
	Selector recon.Selector
	// Reduce says who reduces parity and what the host's stripe handling
	// costs: the zero value is dRAID; SPDK() and Linux() are the host-centric
	// comparison systems on the same engine.
	Reduce Reduce
	// MaxRetries bounds the §5.4 retry chain per operation (default 1: one
	// timeout-driven retry, then the error surfaces).
	MaxRetries int
	// RetryBackoff spaces retries deterministically: attempt k waits
	// k*RetryBackoff before reissuing (default 0: immediate retry).
	RetryBackoff sim.Duration
	// Health, when non-nil, receives per-member evidence from the data path
	// (see HealthSink). Also settable after construction via SetHealth.
	Health HealthSink
	// Hedge configures straggler hedging on the read path (see hedge.go).
	// The zero value (HedgeOff) leaves the read path byte-identical to the
	// unhedged implementation.
	Hedge HedgeConfig
	// WriteBack enables host-side write-back staging: sub-stripe writes are
	// absorbed into an intent-logged staging buffer, acknowledged
	// immediately, coalesced by stripe, and destaged as full-stripe writes
	// (stage.go / destage.go). Off (the default) leaves the write path
	// byte-identical to the unstaged implementation.
	WriteBack bool
	// StageBytes bounds the staging buffer (default 16 MiB). A limit smaller
	// than one stripe's data size degenerates to write-through.
	StageBytes int64
	// CacheBytes sizes the clean-read cache (0 disables it; staged-data
	// read hits work regardless).
	CacheBytes int64
	// DestageInterval is the idle-destage tick period (default 2ms): stripes
	// with no new writes for a full interval are flushed to the drives.
	DestageInterval sim.Duration
	// QoS, when non-nil, admits this controller's user reads and writes
	// through a shared weighted-fair arbiter keyed by volume (NSID), so a
	// noisy neighbor volume cannot monopolize the cluster's in-flight byte
	// window. Several controllers share one arbiter (cluster wiring).
	QoS *QoS
	// QoSWeight is this volume's weight in the shared arbiter (default 1).
	QoSWeight float64
	// QoSRate, when positive, caps this volume's admitted throughput with a
	// token bucket of QoSRate bytes/sec and QoSBurst bytes of burst
	// (QoSBurst <= 0 selects the arbiter's window size).
	QoSRate  float64
	QoSBurst int64
	// Epoch is the host epoch the cluster granted this controller for its
	// volume (membership fencing, §5.4 extended). Every capsule the
	// controller issues carries it; bdevs reject anything below their
	// current epoch with StatusStaleEpoch, so a partitioned predecessor can
	// never apply a write after a takeover. Zero disables epoch stamping
	// and leaves the wire format and protocol byte-identical to the
	// pre-epoch implementation.
	Epoch uint64
	// Lease, when positive, arms the membership lease watchdog: the
	// controller re-validates ownership (via RenewLease) every half-lease
	// and proactively stands down — parking foreground I/O and destage with
	// ErrFenced — once a full lease elapses without a successful renewal,
	// rather than discovering the takeover through rejected writes.
	Lease sim.Duration
	// RenewLease is polled by the lease watchdog; returning false means the
	// grantor has moved the volume's epoch past this controller's and the
	// lease must not be extended. Nil self-renews (the watchdog only fires
	// on explicit revocation then).
	RenewLease func() bool
	// Tracer, when enabled, records structured stripe-op and per-member RPC
	// spans plus a host-core utilization gauge. Nil disables.
	Tracer *trace.Collector
}

// HealthSink receives per-member evidence from the host's data path: missed
// deadlines and error completions (faults) and successful completions (oks).
// confirmed marks definitive evidence — the member's node observed down, or
// a drive-reported error — as opposed to a silent timeout that may be
// network jitter. Implementations must not re-enter the controller
// synchronously with blocking work; defer through the engine instead.
type HealthSink interface {
	ObserveFault(member int, confirmed bool)
	ObserveOK(member int)
}

// Stats counts host-level events.
type Stats struct {
	Reads, Writes        int64
	RMWWrites, RCWWrites int64
	FullStripeWrites     int64
	DegradedReads        int64
	Reconstructions      int64
	Timeouts, Retries    int64
	UserBytesRead        int64
	UserBytesWritten     int64
	HostFallbackWrites   int64
	HostFallbackReads    int64
	QueuedStripeWaits    int64
	Probes               int64
	RebuiltStripes       int64
	Resyncs              int64
	// Integrity-path counters: per-chunk erasure reports received
	// (StatusMediaError completions), successful in-place repairs
	// (repair-on-read and scrub), and scrub progress.
	MediaErrors     int64
	RepairedRanges  int64
	ScrubbedStripes int64
	// Grey-failure counters: HedgedReads counts stripe groups that issued
	// a hedge (parity + cover reads); HedgeWins counts hedges that beat
	// the straggler and settled the extent through the XOR solve.
	HedgedReads int64
	HedgeWins   int64
	// Write-back staging counters: StagedWrites counts stripe groups
	// absorbed by the stage (acknowledged without drive I/O);
	// DestageFullStripe / DestageRCW count destages by mode; CacheHits
	// counts reads served entirely from host memory (stage + read cache);
	// CacheBytes is the read cache's current occupancy (a gauge).
	StagedWrites      int64
	DestageFullStripe int64
	DestageRCW        int64
	CacheHits         int64
	CacheBytes        int64
	// Membership-fencing counters: StaleEpochRejects counts completions
	// reporting this controller's epoch superseded (each one triggers
	// stand-down); ForeignCompletions counts completions discarded because
	// they echoed a different epoch (answers addressed to a predecessor
	// whose command IDs collide with ours after a seize); LeaseExpiries
	// counts watchdog-driven stand-downs.
	StaleEpochRejects  int64
	ForeignCompletions int64
	LeaseExpiries      int64
}

// HostController is the dRAID host: a virtual block device whose I/O is
// disaggregated across the storage targets. Under a host-reduce profile
// (Config.Reduce) the same controller is one of the host-centric comparison
// systems.
type HostController struct {
	rt    backend.Runtime
	fab   backend.Transport
	geo   raid.Geometry
	cfg   Config
	cores backend.Executor
	// worker runs stripe handling — host parity and decode work: the pool
	// itself, or Linux MD's single raid5d core (Reduce.Raid5d).
	worker backend.Executor

	// layout places every (stripe, member) chunk on a physical drive;
	// dyn is non-nil when the layout supports relocation (declustered).
	layout placement.Layout
	dyn    placement.Dynamic

	size   int64
	nextID uint64

	// stripeQ admits one write per stripe at a time (§3); reads are
	// lock-free (§8 optimization over the SPDK POC). A stripe's lock is in
	// the map while held; locks come from and go back to the slab.
	stripeQ map[int64]*stripeQueue
	locks   slab.Slab[stripeQueue]

	// inflight maps command IDs to their live op; deadlines times ops out
	// (deadline.go). Ops, and the records a user I/O runs on, come from
	// slabs; a record still out when the host is drained is a leak
	// (Quiescent).
	inflight    map[uint64]*stripeOp
	deadlines   deadlines
	ops         slab.Slab[stripeOp]
	userIOs     slab.Slab[userIO]
	extentReads slab.Slab[extentRead]
	reductions  slab.Slab[reduction]
	groupWrites slab.Slab[groupWrite]
	sgles       []nvmeof.SGE // what sgl has left of its block

	// results holds the buffers user reads are assembled in. Each one is
	// lent to the read's callback, whose owner releases it (or disowns it
	// to keep it); one still out when the host is drained is a leak.
	results *parity.Pool

	// inbox queues delivered completions for nextMsg (inbox.go), which is
	// bound once so that dispatching one allocates nothing.
	inbox   inbox
	nextMsg func()

	failed map[int]bool // physical drive index → failed

	// memberNode maps physical drive index → the fabric endpoint currently
	// serving it. Identity at construction; spare promotion repoints
	// entries; AddDrive appends. With the fixed layout drive index and
	// stripe member index coincide.
	memberNode []NodeID
	// rebuilds tracks open rebuilds by drive. For a spare rebuild, stripes
	// below the frontier already live on the spare and are routed there.
	rebuilds map[int]*rebuildState
	// relocating lists the lock-held repair steps in flight — chunk
	// relocations, scrubs, resyncs — oldest first; orphans those a crashed
	// predecessor left open (takeover → Fence).
	relocating, orphans []*relocation

	// dirty is the §5.4 write-intent bitmap: stripe → in-flight writes.
	dirty map[int64]int

	// crashed simulates controller death: no new I/O is accepted, no
	// completions are processed, and pending callbacks never fire.
	crashed bool

	// fenced marks a controller that has stood down from its volume: its
	// lease expired or a bdev reported its epoch superseded. Foreground I/O
	// fails fast with fenceErr (ErrFenced or ErrStaleEpoch) and destage
	// parks; unlike crashed, callbacks still fire — the issuer deserves the
	// typed error, not silence.
	fenced   bool
	fenceErr error

	health HealthSink

	// stage is the write-back staging layer (stage.go); nil whenever
	// Config.WriteBack is false, so the default path pays nothing. cache is
	// the clean-read cache; nil when disabled.
	stage *stage
	cache *readCache

	// hedge is the per-member latency model driving hedged reads; nil
	// whenever Config.Hedge.Policy is HedgeOff, so the default path pays
	// nothing.
	hedge *hedger

	// lost tracks virtual byte ranges whose data exceeded the parity budget
	// (RAID-5 double faults involving media errors): reads overlapping them
	// fail fast with blockdev.ErrMediaError instead of returning garbage,
	// and writes covering them bring the bytes back. lostEver counts every
	// range ever recorded (monotonic), for progress deltas.
	lost     integrity.RangeSet
	lostEver int64

	stats Stats

	// Tracing timelines (meaningful only when cfg.Tracer is enabled).
	opsTrack trace.Track // async stripe-op spans
	rpcTrack trace.Track // async per-member capsule exchanges
}

type stripeQueue struct {
	waiters []func()
}

// rebuildState is one member's in-progress rebuild onto a spare endpoint.
type rebuildState struct {
	dest     NodeID
	frontier int64 // stripes < frontier are already on dest
}

// NewHost creates the dRAID host controller on the transport's host
// endpoint. It is backend-agnostic: on a simulation runtime the reactor pool
// models CPU cost in virtual time; on any other runtime CPU work executes
// immediately in submission order (real cores cost real time already).
func NewHost(rt backend.Runtime, fab backend.Transport, driveCapacity int64, cfg Config) *HostController {
	if err := cfg.Geometry.Validate(); err != nil {
		panic(err)
	}
	if cfg.Layout == nil && cfg.LayoutFor != nil {
		cfg.Layout = cfg.LayoutFor(cfg.DriveBase, driveCapacity)
	}
	if cfg.Layout == nil {
		cfg.Layout = placement.NewFixed(cfg.DriveBase, cfg.Geometry.ChunkSize, cfg.Geometry.Width, driveCapacity)
	}
	if cfg.Layout.Width() != cfg.Geometry.Width {
		panic(fmt.Sprintf("core: layout width %d != geometry width %d", cfg.Layout.Width(), cfg.Geometry.Width))
	}
	if cfg.Layout.Drives() > fab.Width() {
		panic(fmt.Sprintf("core: layout drives %d > fabric targets %d", cfg.Layout.Drives(), fab.Width()))
	}
	if cfg.HostCores <= 0 {
		cfg.HostCores = 4
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = sim.Second
	}
	if cfg.Selector == nil {
		cfg.Selector = &recon.RandomSelector{Rng: rt.Rand()}
	}
	var pool *cpu.Pool
	var eng *sim.Engine
	var exec backend.Executor
	worker := backend.Executor(nil)
	if ep, ok := rt.(backend.EngineProvider); ok {
		eng = ep.SimEngine()
		pool = cpu.NewPool(eng, cfg.HostCores)
		exec = pool
		if cfg.Reduce.Raid5d {
			worker = cpu.NewCore(eng)
		}
	} else if ex, ok := rt.(backend.Executor); ok {
		exec = ex // one loop: every executor is a single core already
	} else {
		panic("core: runtime provides neither a sim engine nor an executor")
	}
	if worker == nil {
		worker = exec
	}
	h := &HostController{
		rt: rt, fab: fab, geo: cfg.Geometry, cfg: cfg,
		cores:      exec,
		worker:     worker,
		layout:     cfg.Layout,
		size:       cfg.Layout.Stripes() * cfg.Geometry.StripeDataSize(),
		stripeQ:    make(map[int64]*stripeQueue),
		inflight:   make(map[uint64]*stripeOp),
		failed:     make(map[int]bool),
		memberNode: make([]NodeID, cfg.Layout.Drives()),
		rebuilds:   make(map[int]*rebuildState),
		health:     cfg.Health,
		results:    parity.NewPool(),
	}
	h.nextMsg = h.applyNext
	h.ops.New = func() *stripeOp { return &stripeOp{sent: make([]capsule, 0, cfg.Geometry.Width)} }
	h.userIOs.New, h.extentReads.New = h.makeUserIO, h.makeExtentRead
	h.reductions.New, h.groupWrites.New = h.makeReduction, h.makeGroupWrite
	h.deadlines.timer = backend.NewTimer(rt, h.deadlineFired)
	h.dyn, _ = cfg.Layout.(placement.Dynamic)
	for m := range h.memberNode {
		h.memberNode[m] = NodeID(m)
	}
	if cfg.Hedge.Policy != HedgeOff {
		h.hedge = newHedger(cfg.Hedge, len(h.memberNode))
	}
	if cfg.WriteBack {
		limit := cfg.StageBytes
		if limit <= 0 {
			limit = 16 << 20
		}
		h.stage = newStage(h, limit)
		if cfg.CacheBytes > 0 {
			h.cache = newReadCache(h, cfg.CacheBytes)
		}
		h.stage.startDestageTimer()
	}
	if cfg.QoS != nil {
		w := cfg.QoSWeight
		if w <= 0 {
			w = 1
		}
		cfg.QoS.SetWeight(cfg.Volume, w)
		if cfg.QoSRate > 0 {
			cfg.QoS.SetRate(cfg.Volume, cfg.QoSRate, cfg.QoSBurst)
		}
	}
	if t := cfg.Tracer; t.Enabled() && pool != nil {
		// Volume 0 keeps the historical bare "host" track names so
		// single-volume traces stay byte-identical; further volumes get
		// their own timelines.
		proc := "host"
		if cfg.Volume != 0 {
			proc = fmt.Sprintf("host/v%d", cfg.Volume)
		}
		h.opsTrack = t.Track(proc, "ops")
		h.rpcTrack = t.Track(proc, "rpc")
		t.AddGauge(h.opsTrack, proc+" cores busy",
			trace.PoolUtilizationGauge(eng, cfg.HostCores, pool.BusyTotal))
	}
	fab.RegisterVolume(HostID, cfg.Volume, h.handle)
	if cfg.Lease > 0 {
		h.startLeaseWatchdog()
	}
	return h
}

// Volume returns the controller's volume ID.
func (h *HostController) Volume() VolumeID { return h.cfg.Volume }

// driveOff translates a stripe number to the absolute per-drive byte offset
// shared by all its chunks. Every capsule the controller issues addresses
// drives through this mapping; both layouts place a stripe's chunks at one
// common offset, which is what lets server-side reduce key its
// accumulators by absolute offset.
func (h *HostController) driveOff(stripe int64) int64 {
	return h.layout.StripeBase(stripe)
}

// Layout exposes the volume's placement map.
func (h *HostController) Layout() placement.Layout { return h.layout }

// Declustered reports whether the layout supports chunk-level relocation
// (distributed-spare rebuild, online drive add/remove).
func (h *HostController) Declustered() bool { return h.dyn != nil }

// Drives returns the number of physical drives the layout may address —
// the stripe width for the fixed layout, the whole cluster for a
// declustered one.
func (h *HostController) Drives() int { return len(h.memberNode) }

// Size implements blockdev.Device.
func (h *HostController) Size() int64 { return h.size }

// Stats returns a snapshot of host counters.
func (h *HostController) Stats() Stats { return h.stats }

// Geometry returns the array geometry.
func (h *HostController) Geometry() raid.Geometry { return h.geo }

// SetFailed marks a drive failed (true) or restored (false); the array
// serves degraded I/O for stripes whose chunks live on failed drives.
func (h *HostController) SetFailed(member int, failed bool) {
	if member < 0 || member >= len(h.memberNode) {
		panic(fmt.Sprintf("core: member %d out of range", member))
	}
	if failed {
		h.failed[member] = true
	} else {
		delete(h.failed, member)
	}
}

// DriveFailed reports whether a drive is currently marked failed.
func (h *HostController) DriveFailed(drive int) bool { return h.failed[drive] }

// FailedMembers returns the sorted failed drive indices.
func (h *HostController) FailedMembers() []int {
	var out []int
	for m := range h.failed {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// SetHealth installs (or clears) the sink receiving data-path evidence.
func (h *HostController) SetHealth(s HealthSink) { h.health = s }

// ---------------------------------------------------------------------------
// Member → drive → endpoint indirection. RAID math lives in member-index
// space (which role of the stripe); the layout maps members to physical
// drives; the fabric speaks NodeIDs. All three coincide under the fixed
// layout until a spare is promoted or a rebuild routes early stripes to
// its destination; a declustered layout rotates the member→drive map per
// stripe.

// nodeOf returns the fabric endpoint currently serving a physical drive.
func (h *HostController) nodeOf(drive int) NodeID { return h.memberNode[drive] }

// MemberNode returns the fabric endpoint currently serving a drive — after
// a spare rebuild the drive's chunks live on a spare node, not the
// original one. Fault-injection helpers use it to find the right physical
// drive.
func (h *HostController) MemberNode(drive int) NodeID { return h.memberNode[drive] }

// nodeAt resolves stripe member m to its endpoint: the layout names the
// drive; during a frontier rebuild, stripes below the frontier already
// live on the spare and are served from there.
func (h *HostController) nodeAt(stripe int64, member int) NodeID {
	d := h.layout.Drive(stripe, member)
	if r, ok := h.rebuilds[d]; ok && stripe >= 0 && stripe < r.frontier {
		return r.dest
	}
	return h.memberNode[d]
}

// memberOf is the reverse mapping to DRIVE space: which drive does
// endpoint n serve? Returns -1 for endpoints serving no drive (an idle
// spare). Health evidence is attributed in this space.
func (h *HostController) memberOf(n NodeID) int {
	for m, nd := range h.memberNode {
		if nd == n {
			return m
		}
	}
	for m, r := range h.rebuilds {
		if r.dest == n {
			return m
		}
	}
	return -1
}

// memberOfAt is the reverse mapping to MEMBER space for one stripe: which
// member of the stripe does endpoint n serve? Role math (geo.Role and
// friends) must go through this, not memberOf, because a declustered
// layout permutes drives per stripe.
func (h *HostController) memberOfAt(stripe int64, n NodeID) int {
	for m := 0; m < h.geo.Width; m++ {
		if h.nodeAt(stripe, m) == n {
			return m
		}
	}
	return -1
}

// memberFailed reports whether stripe member m is unavailable for I/O. A
// drive under frontier rebuild is healthy again for stripes already
// copied to the spare; a declustered rebuild instead relocates chunks and
// commits the new placement, after which the layout no longer maps the
// member to the failed drive at all — either way foreground I/O sheds the
// degraded path as the rebuild advances.
func (h *HostController) memberFailed(stripe int64, member int) bool {
	d := h.layout.Drive(stripe, member)
	if !h.failed[d] {
		return false
	}
	if r, ok := h.rebuilds[d]; ok && stripe >= 0 && stripe < r.frontier {
		return false
	}
	return true
}

// failNode marks the drive served by endpoint n failed, if any.
func (h *HostController) failNode(n NodeID) {
	if m := h.memberOf(n); m >= 0 {
		h.SetFailed(m, true)
	}
}

// maxRetries returns the per-op retry budget (§5.4), default 1.
func (h *HostController) maxRetries() int {
	if h.cfg.MaxRetries > 0 {
		return h.cfg.MaxRetries
	}
	return 1
}

// retryAfter spaces retry attempt k by (k+1)*RetryBackoff. With no backoff
// configured the retry runs inline, preserving historical event ordering.
func (h *HostController) retryAfter(attempt int, fn func()) {
	if h.cfg.RetryBackoff <= 0 {
		fn()
		return
	}
	h.rt.After(h.cfg.RetryBackoff*sim.Duration(attempt+1), fn)
}

func (h *HostController) reportFault(member int, confirmed bool) {
	if h.health != nil && member >= 0 && member < len(h.memberNode) {
		h.health.ObserveFault(member, confirmed)
	}
}

func (h *HostController) reportOK(member int) {
	if h.health != nil && member >= 0 && member < len(h.memberNode) {
		h.health.ObserveOK(member)
	}
}

// Probe sends a heartbeat capsule to the endpoint currently serving member.
// Evidence reaches the health sink through the normal completion/deadline
// paths; cb only observes the outcome (for rescheduling the next probe).
func (h *HostController) Probe(member int, timeout sim.Duration, cb func(ok bool)) {
	if h.crashed {
		return
	}
	h.stats.Probes++
	target := h.nodeOf(member)
	op := h.beginOpDeadline("heartbeat", -1, timeout,
		func() { cb(true) },
		func([]NodeID) { cb(false) },
	)
	h.send(op, target, oneReply, nvmeof.Command{Opcode: nvmeof.OpHeartbeat}, parity.Buffer{})
}

// Crash simulates host-controller death: every in-flight operation is
// abandoned with its callbacks never firing, and future I/O and completions
// are ignored. The write-intent bitmap is left intact — it is exactly what a
// replacement controller consumes to resync (§5.4).
func (h *HostController) Crash() {
	h.crashed = true
	ids := make([]uint64, 0, len(h.inflight))
	for id := range h.inflight {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		h.cancelOp(h.inflight[id], "crashed")
	}
}

// Crashed reports whether Crash was called.
func (h *HostController) Crashed() bool { return h.crashed }

// Quiescent reports what a drained controller still holds that an idle one
// must not: an operation in flight, a user I/O's record never returned to its
// slab, a read's result buffer its owner never released, a stripe write
// lock, a write-intent mark, a rebuild registered but neither finished nor
// abandoned, a layout slot reserved by a relocation that never committed or
// released it. An aborted repair must leave none of these behind.
func (h *HostController) Quiescent() error {
	var held []string
	note := func(n int, what string) {
		if n > 0 {
			held = append(held, fmt.Sprintf("%d %s", n, what))
		}
	}
	note(len(h.inflight), "op(s) in flight")
	if !h.crashed {
		// A crash strands the records of every I/O it cut short: their
		// continuations never run, and nothing reuses them.
		note(h.userIOs.Live(), "user I/O record(s) out")
		note(h.extentReads.Live(), "extent read record(s) out")
		note(h.reductions.Live(), "reduction record(s) out")
		note(h.groupWrites.Live(), "stripe write record(s) out")
		note(h.results.Stats().Outstanding(), "read result buffer(s) out")
	}
	note(len(h.stripeQ), "stripe lock(s) held")
	note(len(h.dirty), "stripe(s) marked dirty")
	note(len(h.rebuilds), "rebuild(s) open")
	if h.dyn != nil {
		note(h.dyn.Reserved(), "layout slot(s) reserved")
	}
	if len(held) > 0 {
		return fmt.Errorf("core: volume %d host not quiescent: %s", h.cfg.Volume, strings.Join(held, ", "))
	}
	return nil
}

// Adopt takes over a crashed predecessor's array state — failed members, the
// member→endpoint mapping, and any rebuild in progress — and returns the
// predecessor's dirty stripes: the exact set the replacement must resync
// before parity is trustworthy again.
func (h *HostController) Adopt(prev *HostController) []int64 {
	if !prev.crashed {
		panic("core: adopting a live controller")
	}
	return h.takeover(prev)
}

// Fence severs the crashed predecessor's controller session at every
// reachable bdev (§5.4): each bdev discards the dead session's open
// reductions, drops its straggler commands, and acks only after the drive
// writes in flight at the fence's arrival have landed. Only after every
// fence completes may the replacement resync dirty stripes — otherwise a
// straggler write could land after the resync read the data it recomputed
// parity from, silently invalidating the fresh parity. Unreachable nodes
// are skipped (nothing can land on them) and a fence timeout is treated the
// same way.
func (h *HostController) Fence(cb func(error)) {
	seen := make(map[NodeID]bool)
	var targets []NodeID
	add := func(n NodeID) {
		if !seen[n] && !h.fab.Down(n) {
			seen[n] = true
			targets = append(targets, n)
		}
	}
	for _, n := range h.memberNode {
		add(n)
	}
	for _, r := range h.rebuilds {
		add(r.dest)
	}
	// The dead session is silenced: end the repair steps its crash left open.
	// Each rolls back what it reserved in the shared layout and fails with
	// ErrAbandoned, on which its walk redoes the item here.
	fenced := func() {
		for _, r := range h.orphans {
			r.end(ErrAbandoned)
		}
		h.orphans = nil
		cb(nil)
	}
	if len(targets) == 0 {
		h.rt.Defer(fenced)
		return
	}
	op := h.beginOp("fence", -1, fenced, func([]NodeID) { fenced() })
	for _, n := range targets {
		h.send(op, n, oneReply, nvmeof.Command{Opcode: nvmeof.OpFence}, parity.Buffer{})
	}
}

// ---------------------------------------------------------------------------
// Stripe write admission (§3: one write per stripe; reads are lock-free).

func (h *HostController) acquireStripe(stripe int64, fn func()) {
	if q, held := h.stripeQ[stripe]; held {
		h.stats.QueuedStripeWaits++
		q.waiters = append(q.waiters, fn)
		return
	}
	h.stripeQ[stripe] = h.locks.Get()
	fn()
}

func (h *HostController) releaseStripe(stripe int64) {
	q := h.stripeQ[stripe]
	if q == nil {
		return
	}
	if len(q.waiters) == 0 {
		delete(h.stripeQ, stripe)
		h.locks.Put(q)
		return
	}
	next := q.waiters[0]
	n := copy(q.waiters, q.waiters[1:])
	q.waiters[n] = nil
	q.waiters = q.waiters[:n]
	// Defer so the releasing op's stack unwinds first.
	h.rt.Defer(next)
}

// ---------------------------------------------------------------------------
// Reads.

// Read implements blockdev.Device: per-volume QoS admission when a shared
// arbiter is configured, then the real read.
func (h *HostController) Read(off, n int64, cb func(parity.Buffer, error)) {
	if q := h.cfg.QoS; q != nil && !h.crashed {
		cost := qosCost(n)
		q.Admit(h.cfg.Volume, cost, func() {
			h.readIO(off, n, func(b parity.Buffer, err error) {
				q.Done(h.cfg.Volume, cost)
				cb(b, err)
			})
		})
		return
	}
	h.readIO(off, n, cb)
}

// readIO is the read path proper. Extents on healthy members are plain
// NVMe-oF reads; extents on a failed member trigger the §6.1 disaggregated
// reconstruction, co-designed with the normal reads of the same stripe.
//
// A successful read's buffer comes from h.results and is the callback's to
// Release when done with it, or to Disown to keep it; an elided or empty
// result is not pooled, and releasing it is a no-op.
func (h *HostController) readIO(off, n int64, cb func(parity.Buffer, error)) {
	if h.crashed {
		return
	}
	if h.fenced {
		h.rt.Defer(func() { cb(parity.Buffer{}, h.fenceError("read")) })
		return
	}
	if err := blockdev.CheckRange(off, n, h.size); err != nil {
		h.rt.Defer(func() { cb(parity.Buffer{}, err) })
		return
	}
	h.stats.Reads++
	h.stats.UserBytesRead += n
	if n == 0 {
		h.rt.Defer(func() { cb(parity.Alloc(0), nil) })
		return
	}
	if h.tryMemRead(off, n, cb) {
		// Read-your-writes fast path: staged data plus the clean cache cover
		// the whole range — served from host memory, no drive I/O.
		h.cores.Exec(h.cfg.Costs.PerUser, func() {})
		return
	}
	if s, hit := h.lostUncovered(off, n); hit {
		// Bytes in a lost region were sacrificed to a media double fault;
		// fail fast with the typed error rather than serving garbage. Lost
		// bytes covered by staged writes are fine — the stage overlay
		// supplies them.
		h.rt.Defer(func() {
			cb(parity.Buffer{}, fmt.Errorf("core: read [%d,+%d) overlaps lost region [%d,+%d): %w",
				off, n, s.Off, s.Len, blockdev.ErrMediaError))
		})
		return
	}
	r := h.userIOs.Get()
	r.readCB, r.asm = cb, assembler{n: n, pool: h.results}
	if h.stage != nil || h.cache != nil {
		// Overlay staged bytes over every assembled result (newer than the
		// drives) and feed completed reads into the clean cache. The capture
		// pins the issue-time staged bytes: a destage completing mid-read
		// drops its snapshot, so the completion-time overlay alone could miss
		// acknowledged bytes the drives served stale.
		var pinned []ovSpan
		if h.stage != nil {
			pinned = h.stage.captureOverlay(off, n)
		}
		r.readCB = func(b parity.Buffer, err error) {
			if err == nil {
				if !b.Elided() {
					for _, sp := range pinned {
						b.CopyAt(int(sp.off-off), sp.buf)
					}
				}
				if h.stage != nil {
					h.stage.overlayInto(off, n, b)
				}
				if h.cache != nil {
					h.cache.insert(off, n, b, off) // a copy: b goes back to results after cb
				}
			}
			cb(b, err)
		}
	}
	r.exts = h.geo.AppendSplit(r.exts[:0], off, n)
	for rest := r.exts; len(rest) > 0; {
		group := raid.StripeRun(rest)
		rest = rest[len(group):]
		stripe := group[0].Stripe
		if !h.cfg.Reduce.LockReads {
			h.readStripeGroup(stripe, group, &r.asm, &r.fail, &r.pending, r.partFn)
			continue
		}
		r.pending++
		h.acquireStripe(stripe, func() {
			held := 0
			h.readStripeGroup(stripe, group, &r.asm, &r.fail, &held, func() {
				if held--; held == 0 {
					h.releaseStripe(stripe)
					r.part()
				}
			})
		})
	}
	h.cores.Exec(h.cfg.Costs.PerUser, func() {})
}

// userIO is one issued user read or write-through write, from its split to
// the caller's callback: the extents, kept in the record's own slice, the
// parts still out and the first error; a read's assembler, or a write's one
// private copy of the caller's bytes, which every capsule of its stripe ops
// lends a slice of. Built once per slab slot, with its part steps bound.
type userIO struct {
	h       *HostController
	exts    []raid.Extent
	pending int
	fail    error
	asm     assembler
	data    parity.Buffer
	readCB  func(parity.Buffer, error)
	writeCB func(error)

	partFn      func()
	writePartFn func(error)
}

func (h *HostController) makeUserIO() *userIO {
	r := &userIO{h: h}
	r.partFn, r.writePartFn = r.part, r.writePart
	return r
}

// part settles one part of a read; the last one returns the record and
// answers the caller.
func (r *userIO) part() {
	if r.pending--; r.pending > 0 {
		return
	}
	cb, err := r.readCB, r.fail
	b := r.asm.take(err == nil)
	r.readCB, r.fail = nil, nil
	r.h.userIOs.Put(r)
	cb(b, err)
}

// writePart settles one stripe group of a write; the last one returns the
// record — letting go of the private copy, which capsules still in flight
// keep alive — and acks the caller.
func (r *userIO) writePart(err error) {
	if err != nil && r.fail == nil {
		r.fail = err
	}
	if r.pending--; r.pending > 0 {
		return
	}
	cb, err := r.writeCB, r.fail
	r.writeCB, r.fail, r.data = nil, nil, parity.Buffer{}
	r.h.userIOs.Put(r)
	cb(err)
}

// readStripeGroup serves one stripe's extents of a user read into asm: plain
// reads of healthy members, or the reconstruction of a failed one together
// with them. Each part it issues counts one into *parts first and calls done
// once.
func (h *HostController) readStripeGroup(stripe int64, group []raid.Extent, asm *assembler, fail *error, parts *int, done func()) {
	failed, lost := 0, -1
	for i, e := range group {
		if h.memberFailed(stripe, h.geo.DataDrive(stripe, e.Chunk)) {
			failed, lost = failed+1, i
		}
	}
	switch {
	case failed == 0 && h.hedge != nil:
		*parts++
		h.hedgedReadStripe(stripe, group, asm, fail, done)
	case failed == 0:
		for _, e := range group {
			*parts++
			h.normalReadExtent(e, asm, fail, done, nil)
		}
	case failed == 1:
		*parts++
		h.degradedReadStripe(stripe, group, lost, asm, fail, done)
	default:
		// Several failed data chunks in one stripe (RAID-6 dual failure):
		// one host-side gather solves them all.
		var failedExts, normal []raid.Extent
		for _, e := range group {
			if h.memberFailed(stripe, h.geo.DataDrive(stripe, e.Chunk)) {
				failedExts = append(failedExts, e)
			} else {
				normal = append(normal, e)
			}
		}
		*parts++
		h.hostReadGroup(stripe, failedExts, normal, -1, asm, fail, done)
	}
}

// assembler collects read pieces into the user buffer. The buffer is drawn
// from pool — zeroed, so no byte of an earlier read can show through — by the
// first materialized piece, or by result if it is asked for first, so a read
// whose pieces are all elided never takes one.
type assembler struct {
	n      int64
	pool   *parity.Pool
	buf    parity.Buffer
	elided bool
}

func (a *assembler) put(vOff int64, b parity.Buffer) {
	if b.Elided() {
		a.elided = true
		return
	}
	a.materialize().CopyAt(int(vOff), b)
}

// result returns the assembled buffer, elided if any piece was. Called before
// every piece has arrived (a hedge reading settled extents), it returns the
// buffer the remaining pieces will land in.
func (a *assembler) result() parity.Buffer {
	if a.elided {
		return parity.Sized(int(a.n))
	}
	return a.materialize()
}

func (a *assembler) materialize() parity.Buffer {
	if a.buf.Elided() {
		a.buf = a.pool.Get(int(a.n))
	}
	return a.buf
}

// take ends the assembly and empties the assembler. A read that succeeded
// (ok) gets the assembled buffer, or an elided one if any piece was; the
// storage nobody gets goes back to the pool.
func (a *assembler) take(ok bool) (b parity.Buffer) {
	switch {
	case ok && !a.elided:
		b = a.materialize()
	case ok:
		b = parity.Sized(int(a.n))
		fallthrough
	default:
		a.buf.Release()
	}
	*a = assembler{}
	return b
}

// extentRead serves one extent of a user read into asm: a plain NVMe-oF read
// across its §5.4 retries or, once the extent's member has failed, the §6.1
// reconstruction with the stripe's other extents riding along. w, when
// non-nil, is the hedging stage watching a plain read (hedge.go); nil costs
// nothing. The steps are bound once per slab slot.
type extentRead struct {
	h       *HostController
	e       raid.Extent
	riders  []raid.Extent
	asm     *assembler
	fail    *error
	done    func()
	attempt int
	w       *extentWatch

	issueFn, doneFn   func()
	failedFn, lostFn  func([]NodeID)
	payloadFn         func(NodeID, nvmeof.Command, parity.Buffer)
	mediaFn, onHostFn func(int, nvmeof.Command)
	rebuiltFn         func(parity.Buffer)
}

func (h *HostController) makeExtentRead() *extentRead {
	x := &extentRead{h: h}
	x.issueFn, x.doneFn, x.failedFn, x.lostFn = x.issue, x.succeeded, x.failed, x.reduceFailed
	x.payloadFn, x.mediaFn, x.onHostFn, x.rebuiltFn = x.payload, x.mediaErr, x.onHostStep, x.rebuilt
	return x
}

func (h *HostController) extentRead(e raid.Extent, asm *assembler, fail *error, done func(), w *extentWatch) *extentRead {
	x := h.extentReads.Get()
	x.e, x.asm, x.fail, x.done, x.attempt, x.w = e, asm, fail, done, 0, w
	return x
}

// normalReadExtent issues one extent's plain read into asm and calls done
// once it is served, by this read or by whatever recovery it hands off to.
func (h *HostController) normalReadExtent(e raid.Extent, asm *assembler, fail *error, done func(), w *extentWatch) {
	h.extentRead(e, asm, fail, done, w).issue()
}

func (x *extentRead) issue() {
	h, e := x.h, x.e
	if x.w != nil && x.w.settled {
		x.end() // the stage served the extent while this retry was backing off
		return
	}
	target := h.nodeAt(e.Stripe, h.geo.DataDrive(e.Stripe, e.Chunk))
	op := h.beginOp("read", e.Stripe, x.doneFn, x.failedFn)
	op.onPayload, op.onMediaErr = x.payloadFn, x.mediaFn
	x.w.issued(h, x, op)
	if d := h.cfg.Reduce.ReadPerIO; d > 0 {
		ref := op.ref()
		h.cores.Exec(d, func() { h.sendRead(ref, target, e) }) // the block stack first
		return
	}
	h.sendRead(op.ref(), target, e)
}

// sendRead sends e's plain read for the op r names, unless that op ended
// while the send waited for its CPU slot.
func (h *HostController) sendRead(r opRef, target NodeID, e raid.Extent) {
	if r.live() {
		h.send(r.op, target, oneReply, nvmeof.Command{
			Opcode: nvmeof.OpRead, Offset: h.driveOff(e.Stripe) + e.Off, Length: e.Len,
		}, parity.Buffer{})
	}
}

func (x *extentRead) payload(_ NodeID, _ nvmeof.Command, b parity.Buffer) {
	x.asm.put(x.e.VOff, b)
	b.Release()
}

func (x *extentRead) succeeded() {
	x.w.completed(x.h)
	x.end()()
}

// end returns the record and hands back the continuation it held.
func (x *extentRead) end() (done func()) {
	done = x.done
	x.riders, x.asm, x.fail, x.done, x.w = x.riders[:0], nil, nil, nil, nil
	x.h.extentReads.Put(x)
	return done
}

func (x *extentRead) mediaErr(member int, _ nvmeof.Command) {
	x.w.handOff()
	h, e, asm, fail := x.h, x.e, x.asm, x.fail
	h.mediaRecoverExtent(e, member, asm, fail, x.end())
}

// failed handles a plain read that timed out (§5.4): mark truly-down members
// failed and take the degraded path; a transient timeout (nothing down)
// retries the plain read, with deterministic backoff, until the retry budget
// runs out.
func (x *extentRead) failed(missing []NodeID) {
	h, e := x.h, x.e
	switch {
	case h.fenced:
		*x.fail = h.fenceError(fmt.Sprintf("stripe %d read", e.Stripe))
	case x.attempt >= h.maxRetries():
		*x.fail = fmt.Errorf("core: stripe %d read: retries exhausted: %w", e.Stripe, blockdev.ErrTimeout)
	case len(missing) == 0:
		h.stats.Retries++
		x.attempt++
		h.retryAfter(x.attempt-1, x.issueFn)
		return
	default:
		h.stats.Retries++
		for _, m := range missing {
			h.failNode(m)
		}
		x.w.handOff()
		x.degrade()
		return
	}
	x.end()()
}

// degradedReadStripe reconstructs group[lost], on a failed member, while
// serving the group's other extents.
func (h *HostController) degradedReadStripe(stripe int64, group []raid.Extent, lost int, asm *assembler, fail *error, done func()) {
	x := h.extentRead(group[lost], asm, fail, done, nil)
	x.riders = append(append(x.riders, group[:lost]...), group[lost+1:]...)
	x.degrade()
}

// degrade serves the extent by §6.1 reconstruction: one Reconstruction
// broadcast, a reducer aggregating the contributions, and decoupled direct
// return of the riders' data.
func (x *extentRead) degrade() {
	h, stripe := x.h, x.e.Stripe
	member := h.geo.DataDrive(stripe, x.e.Chunk)
	// The chunk may have come back between the timeout and this retry — the
	// rebuild frontier passed the stripe, so reads now route to the spare.
	// Plain reads suffice; no reconstruction needed.
	if !h.memberFailed(stripe, member) {
		asm, fail, riders := x.asm, x.fail, append([]raid.Extent{x.e}, x.riders...)
		pending, done := len(riders), x.end()
		part := func() {
			if pending--; pending == 0 {
				done()
			}
		}
		for _, e := range riders {
			h.normalReadExtent(e, asm, fail, part, nil)
		}
		return
	}
	h.stats.DegradedReads++
	h.stats.Reconstructions++
	if !h.reduceTree("degraded-read", stripe, member, x.e.Off, x.e.Off+x.e.Len, x.riders, x.asm,
		x.rebuiltFn, x.onHostFn, x.lostFn) {
		// A second data chunk of the stripe is lost, or no parity is left: the
		// host GF solve, which also is where a stripe past its parity budget
		// is refused.
		x.onHost(-1)
	}
}

func (x *extentRead) rebuilt(b parity.Buffer) {
	x.asm.put(x.e.VOff, b)
	b.Release()
	x.end()()
}

func (x *extentRead) onHostStep(bad int, _ nvmeof.Command) { x.onHost(bad) }

// onHost hands the stripe's extents to the host-side solve; bad is a
// survivor that reported unreadable sectors, or -1.
func (x *extentRead) onHost(bad int) {
	h, e, asm, fail, riders := x.h, x.e, x.asm, x.fail, append([]raid.Extent(nil), x.riders...)
	h.hostReadGroup(e.Stripe, []raid.Extent{e}, riders, bad, asm, fail, x.end())
}

func (x *extentRead) reduceFailed(missing []NodeID) {
	if len(missing) == 0 {
		*x.fail = fmt.Errorf("core: stripe %d reconstruction: %w", x.e.Stripe, blockdev.ErrTimeout)
	} else {
		*x.fail = fmt.Errorf("core: stripe %d: members %v lost during reconstruction: %w",
			x.e.Stripe, missing, blockdev.ErrDegraded)
	}
	x.end()()
}

// reduction is one reduceTree exchange: its participants, the reducer's
// segment held until every rider is in, the caller's continuations and the
// op steps, bound once per slab slot. parts and cands keep their storage.
type reduction struct {
	h       *HostController
	parts   []treePart
	cands   []int
	seg     parity.Buffer
	unscale byte
	asm     *assembler

	done   func(parity.Buffer)
	media  func(member int, cmd nvmeof.Command)
	failed func(missing []NodeID)

	doneFn    func()
	failedFn  func([]NodeID)
	mediaFn   func(int, nvmeof.Command)
	payloadFn func(NodeID, nvmeof.Command, parity.Buffer)
}

// treePart is one participant of a reduction.
type treePart struct {
	target  NodeID
	dataIdx uint16      // GF coefficient for this contribution
	own     raid.Extent // rider served by this member, when rides
	rides   bool
}

func (h *HostController) makeReduction() *reduction {
	r := &reduction{h: h}
	r.doneFn, r.failedFn, r.mediaFn, r.payloadFn = r.finished, r.failedStep, r.mediaStep, r.payload
	return r
}

// reduceTree issues the §6 peer reduction that reconstructs stripe member
// `member` over its chunk-relative range [lo,hi) and returns the segment to
// the host — the one place a Reconstruction capsule is built. Works for data,
// P and Q chunks:
//
//   - data chunk: XOR-reduce the surviving data chunks and P; if P is also
//     lost (RAID-6), GF-reduce the survivors and Q and unscale on the host;
//   - P chunk:    XOR-reduce all data chunks;
//   - Q chunk:    GF-reduce all data chunks with their g^i coefficients.
//
// riders are the user read's normal extents on participating chunks: each
// rides its member's capsule (AlsoRead, one combined drive read) and comes
// straight back into asm. Exactly one continuation runs: done with the
// segment, now the caller's; media when a participant reports unreadable
// sectors; failed on the deadline. It reports false, having done nothing,
// when the host reduces degraded reads (Reduce.hostReduces), or when a single
// tree cannot express the solve: another member of the stripe is lost
// besides this one and the parity standing in for it.
func (h *HostController) reduceTree(kind string, stripe int64, member int, lo, hi int64, riders []raid.Extent, asm *assembler,
	done func(parity.Buffer), media func(member int, cmd nvmeof.Command), failed func(missing []NodeID)) bool {
	if h.cfg.Reduce.hostReduces() {
		return false
	}
	r := h.reductions.Get()
	addData := func(scale bool) {
		for c := 0; c < h.geo.DataChunks(); c++ {
			d := h.geo.DataDrive(stripe, c)
			if d == member || h.memberFailed(stripe, d) {
				continue
			}
			p := treePart{target: h.nodeAt(stripe, d), dataIdx: NoScale}
			if scale {
				p.dataIdx = uint16(c)
			}
			for _, e := range riders {
				if e.Chunk == c {
					p.own, p.rides = e, true
				}
			}
			r.parts = append(r.parts, p)
		}
	}
	// unscale post-processes the reducer's result on the host (the Q-based
	// single-data recovery needs a division by g^lost).
	r.unscale = 1
	switch role, lostIdx := h.geo.Role(stripe, member); role {
	case raid.KindData:
		if p, q := h.parityAlive(stripe); p {
			r.parts = append(r.parts, treePart{target: h.nodeAt(stripe, h.geo.PDrive(stripe)), dataIdx: NoScale})
			addData(false)
		} else if q {
			// P lost too: D_lost = (Q ⊕ Σ g^i·D_i) / g^lost.
			r.parts = append(r.parts, treePart{target: h.nodeAt(stripe, h.geo.QDrive(stripe)), dataIdx: NoScale})
			addData(true)
			r.unscale = gf256.Inv(parity.QCoeff(lostIdx))
		}
	case raid.KindP:
		addData(false)
	case raid.KindQ:
		addData(true)
	}
	if len(r.parts) < h.geo.DataChunks() {
		r.end()
		return false
	}

	for _, p := range r.parts {
		r.cands = append(r.cands, int(p.target))
	}
	n := hi - lo
	reducer := NodeID(h.cfg.Selector.Pick(r.cands, n*int64(len(r.parts))))

	r.asm, r.done, r.media, r.failed = asm, done, media, failed
	op := h.beginOp(kind, stripe, r.doneFn, r.failedFn)
	op.onMediaErr, op.onPayload = r.mediaFn, r.payloadFn

	base := h.driveOff(stripe)
	for _, p := range r.parts {
		cmd := nvmeof.Command{
			Opcode:  nvmeof.OpReconstruction,
			Subtype: nvmeof.SubNoRead,
			Offset:  base + lo, Length: n,
			FwdOffset: base + lo, FwdLength: n,
			NextDest: uint16(reducer),
			DataIdx:  p.dataIdx,
		}
		owes := noReply
		if p.rides {
			// Combined drive read: union of own segment and R (§6.1 — also
			// reads the gap between them to stay a single I/O).
			ownOff := base + p.own.Off
			cmd.Subtype = nvmeof.SubAlsoRead
			cmd.SGL = h.sgl(nvmeof.SGE{Off: ownOff, Len: p.own.Len})
			cmd.Offset = min(base+lo, ownOff)
			cmd.Length = max(base+hi, ownOff+p.own.Len) - cmd.Offset
			owes = riderReply
		}
		if p.target == reducer {
			cmd.WaitNum = uint16(len(r.parts))
			owes |= reducedReply
		}
		h.send(op, p.target, owes, cmd, parity.Buffer{})
	}
	return true
}

// payload routes a completion's bytes: the completion subtype disambiguates
// the two §6.1 return paths.
func (r *reduction) payload(from NodeID, cmd nvmeof.Command, b parity.Buffer) {
	if cmd.Subtype == nvmeof.SubNoRead {
		r.seg = b
		return
	}
	for _, p := range r.parts {
		if p.rides && p.target == from {
			r.asm.put(p.own.VOff, b)
		}
	}
	b.Release()
}

// end returns the record, handing back the segment it held.
func (r *reduction) end() (seg parity.Buffer) {
	seg = r.seg
	r.parts, r.cands = r.parts[:0], r.cands[:0]
	r.seg, r.asm, r.done, r.media, r.failed = parity.Buffer{}, nil, nil, nil, nil
	r.h.reductions.Put(r)
	return seg
}

func (r *reduction) finished() {
	h, unscale, done := r.h, r.unscale, r.done
	seg := r.end()
	if unscale == 1 {
		done(seg)
		return
	}
	// seg is the reducer's accumulator, owned by us now; unscale it in place
	// rather than into a fresh buffer.
	h.cores.Exec(h.cfg.Costs.Gf(seg.Len()), func() { done(parity.Scale(seg, unscale)) })
}

func (r *reduction) failedStep(missing []NodeID) {
	failed := r.failed
	r.end().Release()
	failed(missing)
}

func (r *reduction) mediaStep(member int, cmd nvmeof.Command) {
	media := r.media
	r.end().Release()
	media(member, cmd)
}
