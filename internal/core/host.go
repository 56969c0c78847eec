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

	// inflight maps command IDs to their parent operation; deadlines times
	// them out (deadline.go).
	inflight  map[uint64]*stripeOp
	deadlines deadlines

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
	}
	h.nextMsg = h.applyNext
	h.deadlines.armings.New = h.makeArming
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
// must not: an operation in flight, a stripe write lock, a write-intent
// mark, a rebuild registered but neither finished nor abandoned, a layout
// slot reserved by a relocation that never committed or released it. An
// aborted repair must leave none of these behind.
func (h *HostController) Quiescent() error {
	var held []string
	note := func(n int, what string) {
		if n > 0 {
			held = append(held, fmt.Sprintf("%d %s", n, what))
		}
	}
	note(len(h.inflight), "op(s) in flight")
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
		user := cb
		cb = func(b parity.Buffer, err error) {
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
					h.cache.insert(off, n, b, off)
				}
			}
			user(b, err)
		}
	}
	exts := h.geo.Split(off, n)

	asm := newAssembler(n)
	pending := 0
	var fail error
	maybeDone := func() {
		pending--
		if pending == 0 {
			if fail != nil {
				cb(parity.Buffer{}, fail)
				return
			}
			cb(asm.result(), nil)
		}
	}

	byStripe := raid.StripeExtents(exts)
	for _, stripe := range raid.StripeOrder(byStripe) {
		group := byStripe[stripe]
		if !h.cfg.Reduce.LockReads {
			h.readStripeGroup(stripe, group, asm, &fail, &pending, maybeDone)
			continue
		}
		pending++
		h.acquireStripe(stripe, func() {
			held := 0
			h.readStripeGroup(stripe, group, asm, &fail, &held, func() {
				if held--; held == 0 {
					h.releaseStripe(stripe)
					maybeDone()
				}
			})
		})
	}
	h.cores.Exec(h.cfg.Costs.PerUser, func() {})
}

// readStripeGroup serves one stripe's extents of a user read into asm: plain
// reads of healthy members, or the reconstruction of a failed one together
// with them. Each part it issues counts one into *parts first and calls done
// once.
func (h *HostController) readStripeGroup(stripe int64, group []raid.Extent, asm *assembler, fail *error, parts *int, done func()) {
	var failedExts []raid.Extent
	var normal []raid.Extent
	for _, e := range group {
		if h.memberFailed(stripe, h.geo.DataDrive(stripe, e.Chunk)) {
			failedExts = append(failedExts, e)
		} else {
			normal = append(normal, e)
		}
	}
	switch {
	case len(failedExts) == 0 && h.hedge != nil:
		*parts++
		h.hedgedReadStripe(stripe, normal, asm, fail, done)
	case len(failedExts) == 0:
		for _, e := range normal {
			*parts++
			h.normalReadExtent(e, asm, fail, done, 0, nil)
		}
	case len(failedExts) == 1:
		*parts++
		h.degradedReadStripe(stripe, failedExts[0], normal, asm, fail, done)
	default:
		// Several failed data chunks in one stripe (RAID-6 dual failure):
		// one host-side gather solves them all.
		*parts++
		h.hostReadGroup(stripe, failedExts, normal, -1, asm, fail, done)
	}
}

// assembler collects read pieces into the user buffer. The buffer is
// allocated by the first materialized piece, or by result if it is asked for
// first, so a read whose pieces are all elided never allocates one.
type assembler struct {
	n      int64
	buf    parity.Buffer
	elided bool
}

func newAssembler(n int64) *assembler { return &assembler{n: n} }

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
		a.buf = parity.Alloc(int(a.n))
	}
	return a.buf
}

// normalReadExtent issues one extent's plain NVMe-oF read. w, when non-nil, is
// the hedging stage watching the extent (hedge.go); nil costs nothing.
func (h *HostController) normalReadExtent(e raid.Extent, asm *assembler, fail *error, done func(), attempt int, w *extentWatch) {
	if w != nil && w.settled {
		return // the stage served the extent while this retry was backing off
	}
	target := h.nodeAt(e.Stripe, h.geo.DataDrive(e.Stripe, e.Chunk))
	op := h.beginOp("read", e.Stripe,
		func() {
			w.completed(h)
			done()
		},
		func(missing []NodeID) { h.readFailurePath(e, missing, asm, fail, done, attempt, w) },
	)
	op.onPayload = func(_ NodeID, _ nvmeof.Command, b parity.Buffer) {
		asm.put(e.VOff, b)
		b.Release()
	}
	op.onMediaErr = func(member int, _ nvmeof.Command) {
		w.handOff()
		h.mediaRecoverExtent(e, member, asm, fail, done)
	}
	w.issued(h, e, op)
	if d := h.cfg.Reduce.ReadPerIO; d > 0 {
		h.cores.Exec(d, func() { h.sendRead(op, target, e) }) // the block stack first
		return
	}
	h.sendRead(op, target, e)
}

// sendRead sends e's plain read capsule for op.
func (h *HostController) sendRead(op *stripeOp, target NodeID, e raid.Extent) {
	h.send(op, target, oneReply, nvmeof.Command{
		Opcode: nvmeof.OpRead, Offset: h.driveOff(e.Stripe) + e.Off, Length: e.Len,
	}, parity.Buffer{})
}

// readFailurePath handles a normal read that timed out (§5.4): mark
// truly-down members failed and take the degraded path; a transient timeout
// (nothing down) retries the plain read, with deterministic backoff, until
// the retry budget runs out.
func (h *HostController) readFailurePath(e raid.Extent, missing []NodeID, asm *assembler, fail *error, done func(), attempt int, w *extentWatch) {
	if h.fenced {
		*fail = h.fenceError(fmt.Sprintf("stripe %d read", e.Stripe))
		done()
		return
	}
	if attempt >= h.maxRetries() {
		*fail = fmt.Errorf("core: stripe %d read: retries exhausted: %w", e.Stripe, blockdev.ErrTimeout)
		done()
		return
	}
	h.stats.Retries++
	if len(missing) == 0 {
		h.retryAfter(attempt, func() {
			h.normalReadExtent(e, asm, fail, done, attempt+1, w)
		})
		return
	}
	for _, m := range missing {
		h.failNode(m)
	}
	w.handOff()
	h.degradedReadStripe(e.Stripe, e, nil, asm, fail, done)
}

// degradedReadStripe reconstructs failedExt while serving the stripe's
// normal extents, per §6.1: one Reconstruction broadcast, a reducer
// aggregating the contributions, and decoupled direct return of normal data.
func (h *HostController) degradedReadStripe(stripe int64, failedExt raid.Extent, normal []raid.Extent, asm *assembler, fail *error, done func()) {
	member := h.geo.DataDrive(stripe, failedExt.Chunk)
	// The chunk may have come back between the timeout and this retry — the
	// rebuild frontier passed the stripe, so reads now route to the spare.
	// Plain reads suffice; no reconstruction needed.
	if !h.memberFailed(stripe, member) {
		exts := append([]raid.Extent{failedExt}, normal...)
		pending := len(exts)
		part := func() {
			pending--
			if pending == 0 {
				done()
			}
		}
		for _, e := range exts {
			h.normalReadExtent(e, asm, fail, part, 0, nil)
		}
		return
	}
	h.stats.DegradedReads++
	h.stats.Reconstructions++
	onHost := func(bad int) {
		h.hostReadGroup(stripe, []raid.Extent{failedExt}, normal, bad, asm, fail, done)
	}
	if !h.reduceTree("degraded-read", stripe, member, failedExt.Off, failedExt.Off+failedExt.Len, normal, asm,
		func(b parity.Buffer) {
			asm.put(failedExt.VOff, b)
			b.Release()
			done()
		},
		func(bad int, _ nvmeof.Command) { onHost(bad) },
		func(missing []NodeID) {
			if len(missing) == 0 {
				*fail = fmt.Errorf("core: stripe %d reconstruction: %w", stripe, blockdev.ErrTimeout)
			} else {
				*fail = fmt.Errorf("core: stripe %d: members %v lost during reconstruction: %w",
					stripe, missing, blockdev.ErrDegraded)
			}
			done()
		}) {
		// A second data chunk of the stripe is lost, or no parity is left: the
		// host GF solve, which also is where a stripe past its parity budget
		// is refused.
		onHost(-1)
	}
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
	type part struct {
		target  NodeID
		dataIdx uint16       // GF coefficient for this contribution
		own     *raid.Extent // rider served by this member
	}
	var parts []part
	addData := func(scale bool) {
		for c := 0; c < h.geo.DataChunks(); c++ {
			d := h.geo.DataDrive(stripe, c)
			if d == member || h.memberFailed(stripe, d) {
				continue
			}
			p := part{target: h.nodeAt(stripe, d), dataIdx: NoScale}
			if scale {
				p.dataIdx = uint16(c)
			}
			for i := range riders {
				if riders[i].Chunk == c {
					p.own = &riders[i]
				}
			}
			parts = append(parts, p)
		}
	}
	// unscale post-processes the reducer's result on the host (the Q-based
	// single-data recovery needs a division by g^lost).
	unscale := byte(1)
	switch role, lostIdx := h.geo.Role(stripe, member); role {
	case raid.KindData:
		if p, q := h.parityAlive(stripe); p {
			parts = append(parts, part{target: h.nodeAt(stripe, h.geo.PDrive(stripe)), dataIdx: NoScale})
			addData(false)
		} else if q {
			// P lost too: D_lost = (Q ⊕ Σ g^i·D_i) / g^lost.
			parts = append(parts, part{target: h.nodeAt(stripe, h.geo.QDrive(stripe)), dataIdx: NoScale})
			addData(true)
			unscale = gf256.Inv(parity.QCoeff(lostIdx))
		}
	case raid.KindP:
		addData(false)
	case raid.KindQ:
		addData(true)
	}
	if len(parts) < h.geo.DataChunks() {
		return false
	}

	candidates := make([]int, len(parts))
	for i, p := range parts {
		candidates[i] = int(p.target)
	}
	n := hi - lo
	reducer := NodeID(h.cfg.Selector.Pick(candidates, n*int64(len(parts))))

	var seg parity.Buffer // the reducer's result, held until every rider is in
	op := h.beginOp(kind, stripe,
		func() {
			if unscale == 1 {
				done(seg)
				return
			}
			// seg is the reducer's accumulator, owned by us now; unscale it
			// in place rather than into a fresh buffer.
			h.cores.Exec(h.cfg.Costs.Gf(seg.Len()), func() { done(parity.Scale(seg, unscale)) })
		},
		func(missing []NodeID) {
			seg.Release()
			failed(missing)
		},
	)
	op.onMediaErr = func(m int, cmd nvmeof.Command) {
		seg.Release()
		media(m, cmd)
	}
	op.onPayload = func(from NodeID, cmd nvmeof.Command, b parity.Buffer) {
		// The completion subtype disambiguates the two §6.1 return paths.
		if cmd.Subtype == nvmeof.SubNoRead {
			seg = b
			return
		}
		for _, p := range parts {
			if p.own != nil && p.target == from {
				asm.put(p.own.VOff, b)
			}
		}
		b.Release()
	}

	base := h.driveOff(stripe)
	for _, p := range parts {
		cmd := nvmeof.Command{
			Opcode:  nvmeof.OpReconstruction,
			Subtype: nvmeof.SubNoRead,
			Offset:  base + lo, Length: n,
			FwdOffset: base + lo, FwdLength: n,
			NextDest: uint16(reducer),
			DataIdx:  p.dataIdx,
		}
		owes := noReply
		if p.own != nil {
			// Combined drive read: union of own segment and R (§6.1 — also
			// reads the gap between them to stay a single I/O).
			ownOff := base + p.own.Off
			cmd.Subtype = nvmeof.SubAlsoRead
			cmd.SGL = []nvmeof.SGE{{Off: ownOff, Len: p.own.Len}}
			cmd.Offset = min(base+lo, ownOff)
			cmd.Length = max(base+hi, ownOff+p.own.Len) - cmd.Offset
			owes = riderReply
		}
		if p.target == reducer {
			cmd.WaitNum = uint16(len(parts))
			owes |= reducedReply
		}
		h.send(op, p.target, owes, cmd, parity.Buffer{})
	}
	return true
}
