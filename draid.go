// Package draid is a from-scratch reproduction of "Disaggregated RAID
// Storage in Modern Datacenters" (ASPLOS 2023): a parity-RAID system over
// disaggregated storage whose host is only a coordinator — partial-parity
// generation, parity reduction, and data reconstruction run on the storage
// servers and flow peer-to-peer, keeping host NIC overhead at ~1× for both
// partial-stripe writes and degraded reads.
//
// The physical substrate (RDMA fabric, NVMe drives, controller cores) is a
// deterministic discrete-event simulation calibrated to the paper's testbed;
// the protocol, algorithms, and parity math are real. See DESIGN.md for the
// substitution rationale and EXPERIMENTS.md for paper-vs-measured results.
//
// Quick start:
//
//	arr, _ := draid.New(draid.Config{Drives: 8})
//	_ = arr.WriteSync(0, payload)
//	got, _ := arr.ReadSync(0, int64(len(payload)))
//	arr.FailDrive(2)                    // degrade the array
//	still, _ := arr.ReadSync(0, int64(len(payload))) // reconstructed reads
package draid

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"draid/internal/backend"
	"draid/internal/backend/realtime"
	"draid/internal/blockdev"
	"draid/internal/cluster"
	"draid/internal/core"
	"draid/internal/fio"
	"draid/internal/parity"
	"draid/internal/placement"
	"draid/internal/raid"
	"draid/internal/recon"
	"draid/internal/repair"
	"draid/internal/sim"
	"draid/internal/simnet"
	"draid/internal/slab"
	"draid/internal/ssd"
	"draid/internal/trace"
)

// Level selects the RAID level.
type Level = raid.Level

// Supported levels.
const (
	Raid5 = raid.Raid5
	Raid6 = raid.Raid6
)

// Errors returned by array operations. They chain — ErrDoubleFault wraps
// ErrDegraded wraps ErrIO — so errors.Is matches at any specificity:
//
//	if errors.Is(err, draid.ErrDegraded) { ... }  // any degraded-mode failure
var (
	// ErrOutOfRange reports an access beyond the device size.
	ErrOutOfRange = blockdev.ErrOutOfRange
	// ErrIO is the root of all I/O failures.
	ErrIO = blockdev.ErrIO
	// ErrTimeout reports an operation that exceeded its deadline.
	ErrTimeout = blockdev.ErrTimeout
	// ErrDegraded reports a degraded-mode operation that could not complete
	// (for example, a participant lost mid-reconstruction).
	ErrDegraded = blockdev.ErrDegraded
	// ErrDoubleFault reports failures exceeding the parity budget: the
	// addressed data is unrecoverable until rebuild or repair.
	ErrDoubleFault = blockdev.ErrDoubleFault
	// ErrMediaError reports data lost to drive media faults: a latent sector
	// error (URE) or detected corruption that parity reconstruction could not
	// satisfy. Reads overlapping a recorded lost region also match it.
	ErrMediaError = blockdev.ErrMediaError
	// ErrUnsupported reports an operation the array's backend cannot perform —
	// for example, a timing-model feature on the realtime backend, a fabric
	// fault on a transport without the hook, or bit rot on a SizeOnly array.
	ErrUnsupported = backend.ErrUnsupported
	// ErrNoCapacity reports a volume allocation that exceeds the drives'
	// remaining capacity (Pool.OpenVolume past the allocation cursor).
	ErrNoCapacity = cluster.ErrNoCapacity
	// ErrFenced reports I/O refused because the issuing controller no longer
	// owns the volume: its lease expired or a replacement seized the epoch.
	ErrFenced = blockdev.ErrFenced
	// ErrStaleEpoch reports a command rejected by a storage server because it
	// carried a superseded host epoch — proof a takeover happened while the
	// issuing controller was partitioned. Wraps ErrFenced.
	ErrStaleEpoch = blockdev.ErrStaleEpoch
)

// BackendKind selects the substrate an array runs on.
type BackendKind string

// Supported backends.
const (
	// BackendSim is the deterministic discrete-event simulation (the
	// default): virtual time, calibrated NIC/drive/CPU models, and
	// byte-identical replays for a given seed.
	BackendSim BackendKind = "sim"
	// BackendRealtime runs the identical protocol stack on goroutine event
	// loops against wall-clock timers, with in-process channel or loopback
	// TCP transports and memory- or file-backed drives. Timing-model
	// features (NIC rates, Observe tracing, controller offload, the
	// bandwidth-aware reducer) are unavailable.
	BackendRealtime BackendKind = "realtime"
)

// ParseBackend maps a flag-style string ("sim", "realtime"; "" means sim) to
// a BackendKind.
func ParseBackend(s string) (BackendKind, error) {
	switch s {
	case "", "sim":
		return BackendSim, nil
	case "realtime":
		return BackendRealtime, nil
	}
	return "", fmt.Errorf("draid: unknown backend %q", s)
}

// RealtimeOptions tunes the realtime backend (ignored on BackendSim).
type RealtimeOptions struct {
	// TCP carries capsules over loopback TCP sockets (with receiver-side
	// command checksum verification) instead of in-process channels.
	TCP bool
	// Dir backs each drive with a sparse file under this directory instead
	// of memory — the only memory/file selector. A file-backed drive has the
	// same fault model as a memory one and takes every injection. Ignored
	// with SizeOnly.
	Dir string
}

// ReducerPolicy selects degraded-read reducer placement (§6.2).
type ReducerPolicy int

// Reducer placement policies.
const (
	// ReducerRandom spreads reductions uniformly over eligible members
	// (the default).
	ReducerRandom ReducerPolicy = iota
	// ReducerFixed always picks the first eligible member (the static
	// placement the paper compares against).
	ReducerFixed
	// ReducerBWAware picks the member with the most spare NIC bandwidth
	// (§6.2 bandwidth-aware placement).
	ReducerBWAware
)

// String names the policy ("random", "fixed", "bwaware").
func (p ReducerPolicy) String() string {
	switch p {
	case ReducerRandom:
		return "random"
	case ReducerFixed:
		return "fixed"
	case ReducerBWAware:
		return "bwaware"
	}
	return fmt.Sprintf("ReducerPolicy(%d)", int(p))
}

// ParseReducerPolicy maps a flag-style string ("random", "fixed", "bwaware";
// "" means random) to a policy. It is the only place strings enter: the
// Config field itself is typed.
func ParseReducerPolicy(s string) (ReducerPolicy, error) {
	switch s {
	case "", "random":
		return ReducerRandom, nil
	case "fixed":
		return ReducerFixed, nil
	case "bwaware":
		return ReducerBWAware, nil
	}
	return 0, fmt.Errorf("draid: unknown reducer policy %q", s)
}

// HedgePolicy selects when a read hedges its stragglers (see HedgeConfig).
type HedgePolicy = core.HedgePolicy

// Hedging policies.
const (
	// HedgeOff never hedges (the default; the read path is byte-identical
	// to an array built without hedging support).
	HedgeOff = core.HedgeOff
	// HedgeFixedDelay hedges a straggler outstanding longer than
	// HedgeConfig.Delay.
	HedgeFixedDelay = core.HedgeFixedDelay
	// HedgeAdaptiveP95 hedges a straggler outstanding longer than
	// Multiplier × the median of per-member p95 completion latencies.
	HedgeAdaptiveP95 = core.HedgeAdaptiveP95
	// HedgeEagerParity issues the parity read up front with the data reads
	// and solves with whichever k of the n members complete first.
	HedgeEagerParity = core.HedgeEagerParity
)

// ParseHedgePolicy maps a flag-style string ("off", "fixed-delay",
// "adaptive-p95", "eager-parity"; "" means off) to a policy.
func ParseHedgePolicy(s string) (HedgePolicy, error) {
	switch s {
	case "", "off":
		return HedgeOff, nil
	case "fixed", "fixed-delay":
		return HedgeFixedDelay, nil
	case "adaptive", "adaptive-p95":
		return HedgeAdaptiveP95, nil
	case "eager", "eager-parity":
		return HedgeEagerParity, nil
	}
	return 0, fmt.Errorf("draid: unknown hedge policy %q", s)
}

// HedgeConfig tunes hedged reads: when an otherwise-complete stripe read is
// stalled by exactly one slow member, the host reads the stripe's parity
// chunk, reuses the completions it already holds, and XOR-solves the
// straggler's range — any k of the n members answer the read. The abandoned
// straggler feeds the failure detector's grey-failure lattice (see
// HealthConfig.DegradeAfter), so persistent laggards are eventually evicted
// rather than hedged forever.
type HedgeConfig struct {
	// Policy selects the trigger (default HedgeOff). Use ParseHedgePolicy
	// at flag boundaries.
	Policy HedgePolicy
	// Delay is the HedgeFixedDelay trigger (default 500µs).
	Delay time.Duration
	// Multiplier scales the HedgeAdaptiveP95 threshold (default 3).
	Multiplier float64
	// MinSamples is the per-member warm-up before adaptive hedging trusts
	// its latency quantiles (default 32).
	MinSamples int
}

// SlowKind classifies slow-drive injection profiles (grey failures: the
// drive answers correctly, just slowly).
type SlowKind = backend.SlowKind

// Slow-drive profile kinds.
const (
	// SlowNone clears a previously installed profile.
	SlowNone = backend.SlowNone
	// SlowConstant inflates service time by a constant Factor.
	SlowConstant = backend.SlowConstant
	// SlowFading ramps inflation linearly from 1× to Factor over Ramp —
	// the classic fading drive.
	SlowFading = backend.SlowFading
	// SlowStall freezes completions for Stall out of every Period — an
	// intermittent brown-out (firmware GC, link flaps).
	SlowStall = backend.SlowStall
)

// SlowProfile describes deterministic per-drive latency inflation, installed
// with Inject().SlowDrive. Randomized jitter is seeded from Config.Seed, so
// two same-seed runs inject identical slowness.
type SlowProfile struct {
	Kind SlowKind
	// Factor is the steady-state service-time multiplier (SlowConstant,
	// SlowFading).
	Factor float64
	// Ramp is the SlowFading ramp length from healthy to Factor.
	Ramp time.Duration
	// Period and Stall define the SlowStall duty cycle: completions freeze
	// for Stall out of every Period.
	Period, Stall time.Duration
	// Base overrides the synthetic per-op latency the realtime backend
	// inflates (its drives, memory- or file-backed, have no timing model and
	// complete on the next loop turn otherwise). Default 100µs. Ignored by
	// the simulation, which inflates its calibrated drive model instead.
	Base time.Duration
	// Jitter scales the inflation by ±Jitter uniformly at random (seeded).
	Jitter float64
}

// ParseSlowProfile maps a flag-style string to a profile:
//
//	"none" or ""        no slowness
//	"const:F"           constant F× inflation           (const:10)
//	"fade:F:RAMP"       linear ramp to F× over RAMP     (fade:10:50ms)
//	"stall:STALL/PERIOD" freeze STALL out of each PERIOD (stall:2ms/20ms)
func ParseSlowProfile(s string) (SlowProfile, error) {
	if s == "" || s == "none" {
		return SlowProfile{}, nil
	}
	bad := func() (SlowProfile, error) {
		return SlowProfile{}, fmt.Errorf("draid: malformed slow profile %q", s)
	}
	kind, rest, _ := strings.Cut(s, ":")
	switch kind {
	case "const":
		f, err := strconv.ParseFloat(rest, 64)
		if err != nil || f <= 0 {
			return bad()
		}
		return SlowProfile{Kind: SlowConstant, Factor: f}, nil
	case "fade":
		fs, rs, ok := strings.Cut(rest, ":")
		if !ok {
			return bad()
		}
		f, err := strconv.ParseFloat(fs, 64)
		if err != nil || f <= 0 {
			return bad()
		}
		ramp, err := time.ParseDuration(rs)
		if err != nil || ramp <= 0 {
			return bad()
		}
		return SlowProfile{Kind: SlowFading, Factor: f, Ramp: ramp}, nil
	case "stall":
		ss, ps, ok := strings.Cut(rest, "/")
		if !ok {
			return bad()
		}
		stall, err := time.ParseDuration(ss)
		if err != nil || stall <= 0 {
			return bad()
		}
		period, err := time.ParseDuration(ps)
		if err != nil || period < stall {
			return bad()
		}
		return SlowProfile{Kind: SlowStall, Stall: stall, Period: period}, nil
	}
	return bad()
}

// toCore converts the public hedge config to the core representation.
func (c HedgeConfig) toCore() core.HedgeConfig {
	return core.HedgeConfig{
		Policy:     c.Policy,
		Delay:      sim.Duration(c.Delay),
		Multiplier: c.Multiplier,
		MinSamples: c.MinSamples,
	}
}

// toBackend converts the public profile to the backend representation.
func (p SlowProfile) toBackend() backend.SlowProfile {
	return backend.SlowProfile{
		Kind: p.Kind, Factor: p.Factor,
		Ramp: sim.Duration(p.Ramp), Period: sim.Duration(p.Period),
		Stall: sim.Duration(p.Stall), Base: sim.Duration(p.Base),
		Jitter: p.Jitter,
	}
}

// Tracer is the structured virtual-time trace collector. A nil *Tracer is
// the disabled tracer: every method is safe to call and does nothing, and
// WriteChrome/WriteFlame emit valid empty documents.
type Tracer = trace.Collector

// Observe configures the tracing and metrics subsystem (see Array.Trace).
type Observe struct {
	// Trace enables collection: hierarchical spans from the controllers,
	// NICs, and drives, plus periodic gauge samples (NIC utilization, drive
	// queue depth, controller-core busy fraction). Collection runs in
	// virtual time, so two same-seed runs emit byte-identical traces.
	Trace bool
	// SampleEvery sets the gauge sampling period in virtual time
	// (default 50µs).
	SampleEvery time.Duration
}

// HealthConfig tunes automatic failure detection (internal/repair). With
// Detect set, the host controller feeds per-member evidence — op timeouts,
// error completions, missed heartbeats — into a healthy → suspect → failed
// state machine, and confirmed failures trigger rebuild onto a hot spare
// (when Config.Spares provides one) with no SetFailed call from outside.
type HealthConfig struct {
	// Detect enables the failure detector and heartbeat probing.
	Detect bool
	// FailAfter is how many unconfirmed strikes escalate suspect → failed
	// (default 3). Confirmed evidence (node observably down, drive error)
	// escalates immediately.
	FailAfter int
	// HeartbeatEvery is the probe period (default 10ms when Detect is set).
	HeartbeatEvery time.Duration
	// HeartbeatTimeout is the per-probe deadline (default HeartbeatEvery/2).
	HeartbeatTimeout time.Duration
	// Grace is the quiet window after which accumulated strikes decay
	// (default 4×HeartbeatEvery).
	Grace time.Duration
	// DegradeAfter is how many slow strikes (hedge losses, see HedgeConfig)
	// mark a healthy member degraded (default 8).
	DegradeAfter int
	// EvictAfter is how many slow strikes evict a persistently slow member:
	// suspect at EvictAfter/2, failed — triggering spare rebuild — at
	// EvictAfter (default 64; negative disables slow-strike eviction).
	EvictAfter int
}

// MemberState re-exports the detector's per-member state (healthy, degraded,
// suspect, failed) for status surfaces.
type MemberState = repair.MemberState

// Detection states: the health lattice healthy → degraded → suspect →
// failed. Degraded members answer correctly but slowly (grey failure).
const (
	Healthy  = repair.Healthy
	Degraded = repair.Degraded
	Suspect  = repair.Suspect
	Failed   = repair.Failed
)

// RebuildStatus re-exports the rebuild manager's progress snapshot.
type RebuildStatus = repair.Status

// ScrubStatus re-exports the background scrubber's progress snapshot.
type ScrubStatus = repair.ScrubStatus

// RebalanceStatus re-exports the rebalancer's progress snapshot.
type RebalanceStatus = repair.Status

// LostRegion is one virtual byte range sacrificed to a media double fault
// (for example, a survivor URE during a RAID-5 rebuild). See Status.Lost.
type LostRegion = core.LostRegion

// RecoveryEvent is one entry of an array's recovery log (Status.Events).
type RecoveryEvent = repair.Event

// Status is a snapshot of everything an operator asks of an array: who owns
// it, which members are failed or suspect, what its repair walks are doing,
// what data it has lost and how it got there. Array.Status reads it in one
// step. Every field marshals to JSON.
type Status struct {
	// Volume is the array's volume number on its cluster (0 for a
	// standalone draid.New array).
	Volume int
	// Epoch is the controller's cluster-granted membership epoch (0 when
	// Config.EpochFencing is off). Fenced reports that the controller has
	// stood down — its lease lapsed or a storage server rejected it with a
	// stale-epoch status — and fails all further I/O with
	// ErrFenced/ErrStaleEpoch; bring up a successor with SeizeHost or
	// FailoverHost.
	Epoch  uint64
	Fenced bool
	// Drives is the number of physical drives the layout addresses: the
	// stripe width for a fixed layout, the (possibly grown) cluster for a
	// declustered one.
	Drives int
	// Failed lists the members the controller treats as failed. Health is
	// every member's detection state; without a detector (Config.Health),
	// failed members report Failed and the rest Healthy.
	Failed []int
	Health []MemberState
	// Spares is how many hot spares the cluster still has to claim.
	Spares int
	// Rebuild is the supervisor's rebuild, Rebalance the walk of the last
	// AddDrive/RemoveDrive, Scrub the scrubber's progress; each is the zero
	// value when it never ran.
	Rebuild   RebuildStatus
	Rebalance RebalanceStatus
	Scrub     ScrubStatus
	// Lost lists virtual byte ranges sacrificed to media double faults —
	// latent errors past the parity budget, the classic RAID-5 rebuild
	// hazard. Reads overlapping a lost region fail fast with ErrMediaError
	// instead of returning fabricated bytes; a full rewrite of the range
	// clears it.
	Lost []LostRegion
	// StaleRejects totals the commands the storage servers refused for
	// carrying a superseded host epoch — each one a write or read a
	// fenced-out predecessor attempted after a takeover.
	StaleRejects int64
	// Counters are the host controller's operation counters.
	Counters core.Stats
	// Events is the recovery log, oldest first: failures, rebuilds, scrub
	// passes and repairs, lost regions, drive adds and removals, and host
	// takeovers with their epochs. It keeps the newest repair.LogCapacity
	// entries.
	Events []RecoveryEvent
}

// Config describes a dRAID array and its testbed.
type Config struct {
	// Backend selects the substrate (default BackendSim). BackendRealtime
	// runs the same protocol on goroutines, channels/TCP, and real media;
	// see RealtimeOptions for its knobs and BackendKind for what it cannot
	// model.
	Backend BackendKind
	// Realtime tunes the realtime backend (ignored on BackendSim).
	Realtime RealtimeOptions
	// Level is the RAID level (default Raid5).
	Level Level
	// Drives is the stripe width: one remote target per member drive
	// (default 8, the paper's default). With Declustered it remains the
	// stripe width while the cluster holds ClusterDrives targets.
	Drives int
	// Declustered spreads the stripes over ClusterDrives > Drives physical
	// drives with a seeded parity-declustered placement (dRAID-style):
	// every drive holds chunks of ~Stripes×Drives/ClusterDrives stripes,
	// each row keeps distributed spare slots, and a failed drive is rebuilt
	// many-to-many into those slots — so rebuild time shrinks as the
	// cluster grows, and drives can be added (AddDrive) and removed
	// (RemoveDrive) online. Off (the default) keeps the classic fixed
	// layout, byte-identical to previous releases.
	Declustered bool
	// ClusterDrives is the physical drive count a declustered array spreads
	// over; must exceed Drives so every row keeps at least one spare slot.
	// Requires Declustered.
	ClusterDrives int
	// ChunkSize is the stripe chunk size (default 512 KB).
	ChunkSize int64
	// DriveCapacity overrides the per-drive capacity (default 1.6 TB, the
	// paper's drives; use something small for data-integrity experiments).
	DriveCapacity int64
	// HostNICGbps and TargetNICGbps set line rates (default 100).
	// TargetNICGbpsList overrides per-target rates (heterogeneous setups).
	HostNICGbps       float64
	TargetNICGbps     float64
	TargetNICGbpsList []float64
	// ReducerPolicy selects degraded-read reducer placement (default
	// ReducerRandom). Use ParseReducerPolicy at flag boundaries.
	ReducerPolicy ReducerPolicy
	// Hedge tunes hedged reads against slow (grey-failed) members. The
	// zero value disables hedging and leaves the read path byte-identical.
	Hedge HedgeConfig
	// DrivesPerServer co-locates several member drives on one physical
	// storage server, sharing its NIC and controller core (§5.5 resource
	// sharing). Default 1.
	DrivesPerServer int
	// SizeOnly runs the data plane without materializing payload bytes —
	// benchmark mode. Data-bearing APIs then return zero-filled buffers.
	SizeOnly bool
	// OffloadController places the dRAID controller on a storage-class
	// server (§7): the local node becomes a thin client one NVMe-oF hop
	// away. Client NIC traffic is 1x in every state; latency gains one hop.
	OffloadController bool
	// Seed drives all randomness (default 1).
	Seed int64
	// Observe configures the tracing and metrics subsystem.
	Observe Observe
	// Spares provisions this many hot-spare storage servers (own NIC, core,
	// drive) beyond the array width. Confirmed member failures rebuild onto
	// spares automatically.
	Spares int
	// Health configures automatic failure detection.
	Health HealthConfig
	// RebuildRateMBps throttles hot-spare rebuild to this many MB/s of
	// reconstructed data (the Figure 17 rebuild-vs-foreground knob).
	// 0 means unthrottled.
	RebuildRateMBps float64
	// Integrity enables end-to-end data integrity: storage servers keep a
	// CRC32C per 4 KB block (a T10-DIF stand-in, computed by the drive
	// datapath so it adds no virtual-time cost) and verify every read.
	// Checksum mismatches and media errors surface to the host as per-chunk
	// erasures, satisfied via parity reconstruction and then repaired in
	// place. Incompatible with SizeOnly (checksums need stored bytes).
	// Implied by ScrubInterval > 0.
	Integrity bool
	// ScrubInterval enables the background scrubber: each interval of virtual
	// time a pass walks every stripe, verifying checksum and parity coherence
	// and repairing latent errors before a second fault makes them fatal.
	// Implies Integrity. Passes run on background timers, so Run still
	// returns when foreground I/O drains.
	ScrubInterval time.Duration
	// ScrubRateMBps throttles scrub passes to this many MB/s of verified
	// stripe data (all chunks), so scrubbing trickles along under foreground
	// I/O. 0 means unthrottled.
	ScrubRateMBps float64
	// WriteBack enables host-side write-back staging: sub-stripe writes land
	// in a bounded, intent-logged staging buffer, are acknowledged
	// immediately, coalesced by stripe, and destaged as full-stripe writes —
	// cutting small-write drive-byte amplification from ~2x toward
	// (k+parity)/k and closing the write hole by construction for staged
	// writes. Off (the default) leaves the write path byte-identical.
	// Acknowledged staged writes survive FailoverHost via intent-log replay.
	WriteBack bool
	// StageMB bounds the staging buffer in MiB (default 16). Requires
	// WriteBack.
	StageMB int
	// CacheMB sizes the host's clean-read cache in MiB (default 0: no clean
	// cache; reads of staged-but-not-destaged data still hit host memory).
	// Requires WriteBack.
	CacheMB int
	// DestageIntervalMs is the idle-destage tick in milliseconds (default
	// 2): staged stripes with no new writes for a full tick are flushed.
	// Requires WriteBack.
	DestageIntervalMs int
	// EpochFencing enables membership epochs: the host controller holds a
	// monotone epoch granted by the cluster at volume-open and takeover time,
	// stamps it into every protocol capsule, and the storage servers reject
	// commands from superseded epochs with a typed status — so a partitioned
	// predecessor can never corrupt state after a replacement takes over
	// (SeizeHost), no matter how long it keeps retrying. A host that observes
	// a stale-epoch rejection stands down: further I/O fails with
	// ErrStaleEpoch. Off (the default) leaves the wire format and every code
	// path byte-identical to previous releases.
	EpochFencing bool
	// HostLease arms the controller's membership lease: the host re-validates
	// its epoch against the cluster every HostLease/2 and proactively fences
	// itself — parking foreground I/O and destage with ErrFenced — once a
	// full lease elapses without a successful renewal, bounding how long a
	// partitioned host keeps issuing doomed writes. 0 (the default) disables
	// the watchdog. Requires EpochFencing.
	HostLease time.Duration
	// MaxRetries bounds §5.4 per-op retries before an I/O fails with
	// ErrTimeout (default 1). RetryBackoff spaces successive attempts
	// (default 0: immediate).
	MaxRetries   int
	RetryBackoff time.Duration
	// OpDeadline bounds each stripe operation (§5.4); ops stalled past it
	// retry and feed the failure detector. Default 1s. Tighten it to bound
	// worst-case I/O latency across an undetected member failure.
	OpDeadline time.Duration
}

// Array is a dRAID virtual block device plus its simulated testbed. All
// methods must be called from one goroutine; *Sync methods advance virtual
// time until the operation completes.
type Array struct {
	cl   *cluster.Cluster
	host *core.HostController
	// dev is the I/O entry point: the controller itself, or the thin
	// client when the controller is offloaded (§7).
	dev blockdev.Device
	// clientNode is the traffic-accounting vantage point.
	clientNode *simnet.Node
	// hostCfg is kept so FailoverHost can build an identical replacement.
	hostCfg core.Config
	// sup is the fault-supervision stack (nil unless Spares, Health.Detect,
	// or ScrubInterval was configured).
	sup *repair.Supervisor
	// scrub serves ScrubNow: the supervisor's scrubber, or on an array
	// without one, a scrubber built by the first ScrubNow.
	scrub *repair.Scrubber
	// log is the recovery log the supervisor, the scrubber and every
	// rebuilder write to.
	log *repair.Log
	// scrubRate paces ad-hoc scrub passes; seed feeds per-drive fault
	// injection (Inject().LatentErrorRate).
	scrubRate float64
	seed      int64
	// vol is non-nil for arrays opened through a Pool: traffic accounting is
	// then scoped to the volume's share of the host NIC.
	vol *cluster.Volume
	// realtime marks arrays on BackendRealtime: host state is then confined
	// to the host event loop and accessed via call().
	realtime bool
	// reqs pools the records of Read, Write and the synchronous calls; any
	// goroutine may issue, so a lock guards them.
	reqMu sync.Mutex
	reqs  slab.Slab[request]
}

// withDefaults returns cfg with zero fields filled in.
func (cfg Config) withDefaults() Config {
	if cfg.Backend == "" {
		cfg.Backend = BackendSim
	}
	if cfg.Level == 0 {
		cfg.Level = Raid5
	}
	if cfg.Drives == 0 {
		cfg.Drives = 8
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = 512 << 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ScrubInterval > 0 {
		cfg.Integrity = true
	}
	return cfg
}

// Validate reports why the configuration cannot be assembled, after applying
// the same defaulting New applies. A nil return means New will accept it.
func (cfg Config) Validate() error {
	return cfg.withDefaults().validate()
}

// validate checks an already-defaulted config.
func (cfg Config) validate() error {
	if cfg.Integrity && cfg.SizeOnly {
		return fmt.Errorf("draid: Integrity requires stored data (incompatible with SizeOnly)")
	}
	geo := raid.Geometry{Level: cfg.Level, Width: cfg.Drives, ChunkSize: cfg.ChunkSize}
	if err := geo.Validate(); err != nil {
		return err
	}
	switch cfg.ReducerPolicy {
	case ReducerRandom, ReducerFixed, ReducerBWAware:
	default:
		return fmt.Errorf("draid: unknown reducer policy %v", cfg.ReducerPolicy)
	}
	switch cfg.Hedge.Policy {
	case HedgeOff, HedgeFixedDelay, HedgeAdaptiveP95, HedgeEagerParity:
	default:
		return fmt.Errorf("draid: unknown hedge policy %v", cfg.Hedge.Policy)
	}
	if cfg.ClusterDrives != 0 && !cfg.Declustered {
		return fmt.Errorf("draid: ClusterDrives requires Declustered")
	}
	if cfg.Declustered && cfg.ClusterDrives <= cfg.Drives {
		return fmt.Errorf("draid: declustered placement needs ClusterDrives (%d) > Drives (%d) for distributed spare slots",
			cfg.ClusterDrives, cfg.Drives)
	}
	if !cfg.WriteBack {
		if cfg.StageMB != 0 || cfg.CacheMB != 0 || cfg.DestageIntervalMs != 0 {
			return fmt.Errorf("draid: StageMB/CacheMB/DestageIntervalMs require WriteBack")
		}
	}
	if cfg.StageMB < 0 || cfg.CacheMB < 0 || cfg.DestageIntervalMs < 0 {
		return fmt.Errorf("draid: negative write-back sizing")
	}
	if cfg.HostLease < 0 {
		return fmt.Errorf("draid: negative HostLease")
	}
	if cfg.HostLease > 0 && !cfg.EpochFencing {
		return fmt.Errorf("draid: HostLease requires EpochFencing (renewal validates the epoch)")
	}
	switch cfg.Backend {
	case BackendSim:
	case BackendRealtime:
		// The realtime backend has no timing models to observe or steer.
		if cfg.OffloadController {
			return fmt.Errorf("draid: OffloadController on the realtime backend: %w", ErrUnsupported)
		}
		if cfg.Observe.Trace {
			return fmt.Errorf("draid: Observe.Trace on the realtime backend: %w", ErrUnsupported)
		}
		if cfg.ReducerPolicy == ReducerBWAware {
			return fmt.Errorf("draid: ReducerBWAware on the realtime backend: %w", ErrUnsupported)
		}
		if cfg.DrivesPerServer > 1 {
			return fmt.Errorf("draid: DrivesPerServer on the realtime backend: %w", ErrUnsupported)
		}
		if cfg.Realtime.TCP && cfg.ChunkSize > realtime.MaxFramePayload {
			// A member's payload is at most one chunk.
			return fmt.Errorf("draid: %d-byte chunks exceed the TCP transport's %d-byte frame payload", cfg.ChunkSize, realtime.MaxFramePayload)
		}
	default:
		return fmt.Errorf("draid: unknown backend %q", cfg.Backend)
	}
	return nil
}

// New assembles the testbed — simulated or realtime, as cfg.Backend names —
// and opens the array on it as the cluster's only volume.
func New(cfg Config) (*Array, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cl, err := cfg.newCluster()
	if err != nil {
		return nil, err
	}
	arr, err := open(cl, cfg, "vol0", 0, 0, nil)
	if err != nil {
		cl.Close()
		return nil, err
	}
	if cfg.OffloadController {
		clientNode := cl.Net.NewNode("client")
		gbps := cfg.HostNICGbps
		if gbps == 0 {
			gbps = 100
		}
		clientNode.AddNIC("nic0", gbps)
		arr.dev = core.NewOffload(cl.Eng, cl.Net, clientNode, arr.host, cl.Costs)
		arr.clientNode = clientNode
	}
	return arr, nil
}

// newCluster assembles the testbed an already defaulted and validated config
// asks for, on the backend it names: New's own, or the one a Pool's volumes
// share.
func (cfg Config) newCluster() (*cluster.Cluster, error) {
	if cfg.Backend != BackendRealtime {
		spec := cfg.simSpec()
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		return cluster.New(spec), nil
	}
	capacity := cfg.DriveCapacity
	if capacity == 0 {
		// The sim's 1.6 TB default is sparse virtual capacity; realtime
		// arrays move real bytes, so default to something rebuildable.
		capacity = 256 << 20
	}
	return cluster.NewRealtime(cluster.RealtimeSpec{
		Targets: cfg.clusterTargets(), Spares: cfg.Spares, Seed: cfg.Seed,
		DriveCapacity: capacity, SizeOnly: cfg.SizeOnly, Integrity: cfg.Integrity,
		Pipelined: true, TCP: cfg.Realtime.TCP, Dir: cfg.Realtime.Dir,
	})
}

// simSpec sizes the simulated testbed a config asks for.
func (cfg Config) simSpec() cluster.Spec {
	spec := cluster.DefaultSpec()
	spec.Targets = cfg.clusterTargets()
	spec.Spares = cfg.Spares
	spec.Seed = cfg.Seed
	spec.Elide = cfg.SizeOnly
	spec.Integrity = cfg.Integrity
	if cfg.HostNICGbps != 0 {
		spec.HostGbps = cfg.HostNICGbps
	}
	if cfg.TargetNICGbps != 0 {
		spec.TargetGbps = cfg.TargetNICGbps
	}
	spec.TargetGbpsList = cfg.TargetNICGbpsList
	spec.BdevsPerServer = cfg.DrivesPerServer
	spec.Observe = cfg.Observe.Trace
	spec.SampleEvery = sim.Duration(cfg.Observe.SampleEvery)
	if cfg.DriveCapacity != 0 {
		drv := ssd.DefaultSpec()
		drv.Capacity = cfg.DriveCapacity
		drv.StoreData = !cfg.SizeOnly
		spec.Drive = &drv
	}
	return spec
}

// clusterTargets returns the physical target count the testbed needs: the
// stripe width normally, the whole declustered drive set otherwise.
func (cfg Config) clusterTargets() int {
	if cfg.Declustered {
		return cfg.ClusterDrives
	}
	return cfg.Drives
}

// open is the one place public configuration becomes a core.Config. It
// registers a volume called name over extent bytes of every drive of cl (0
// claims what is left) and returns the Array serving it: New calls it on a
// cluster of its own, Pool.OpenVolume on the shared one, with the volume's
// QoS weight and the pool's shared rebuild budget. cfg is already defaulted
// and validated — validate keeps ReducerBWAware, which reads simulated NIC
// queues, off the realtime backend — so the one thing here that depends on
// which backend cl runs on is the entry point: on realtime, I/O is marshalled
// onto the host's event loop.
func open(cl *cluster.Cluster, cfg Config, name string, extent int64, qosWeight float64, shared *repair.RateLimiter) (*Array, error) {
	hc := core.Config{
		Geometry:     raid.Geometry{Level: cfg.Level, Width: cfg.Drives, ChunkSize: cfg.ChunkSize},
		MaxRetries:   cfg.MaxRetries,
		RetryBackoff: sim.Duration(cfg.RetryBackoff),
		Deadline:     sim.Duration(cfg.OpDeadline),
		Hedge:        cfg.Hedge.toCore(),
		QoSWeight:    qosWeight,
	}
	switch cfg.ReducerPolicy {
	case ReducerFixed:
		hc.Selector = recon.FixedSelector{}
	case ReducerBWAware:
		hc.Selector = cl.BWAwareSelector(cfg.Drives)
	}
	if cfg.Declustered {
		width, drives, chunk, seed := cfg.Drives, cfg.ClusterDrives, cfg.ChunkSize, cfg.Seed
		hc.LayoutFor = func(base, extent int64) placement.Layout {
			l, err := placement.NewDeclustered(base, extent, chunk, width, drives, seed)
			if err != nil {
				// validate() enforced width ≥ 2, drives > width, extent ≥ chunk.
				panic(err.Error())
			}
			return l
		}
	}
	if cfg.WriteBack {
		hc.WriteBack = true
		hc.StageBytes = int64(cfg.StageMB) << 20
		hc.CacheBytes = int64(cfg.CacheMB) << 20
		hc.DestageInterval = sim.Duration(cfg.DestageIntervalMs) * sim.Millisecond
	}
	if cfg.EpochFencing {
		// The registry assigns the next VolumeID sequentially, so the grant
		// can name it before AddVolume runs.
		grantEpoch(cl, core.VolumeID(len(cl.Volumes())), &hc, sim.Duration(cfg.HostLease))
	}
	vol, err := cl.AddVolume(name, extent, hc)
	if err != nil {
		return nil, err
	}
	arr := &Array{cl: cl, host: vol.Host, dev: vol.Host, clientNode: cl.HostNode, hostCfg: vol.Cfg,
		log: repair.NewLog(cl.Rt), scrubRate: cfg.ScrubRateMBps, seed: cfg.Seed, realtime: cfg.Backend == BackendRealtime}
	arr.attachSupervisor(cfg, shared)
	return arr, nil
}

// grantEpoch takes the next host epoch for a volume from the cluster's
// membership registry and stamps it (plus the lease watchdog) onto a host
// config. The renewal closure re-validates against the registry, so a host
// superseded by a takeover cannot renew.
func grantEpoch(cl *cluster.Cluster, vol core.VolumeID, hc *core.Config, lease sim.Duration) {
	epoch := cl.GrantEpoch(vol)
	hc.Epoch = epoch
	hc.Lease = lease
	hc.RenewLease = nil
	if lease > 0 {
		hc.RenewLease = func() bool { return cl.CurrentEpoch(vol) == epoch }
	}
}

// attachSupervisor builds the fault-supervision stack when the config asks
// for one. Shared by both backends and by Pool volumes, whose rebuilds draw
// on the pool's shared budget instead of a private one.
func (a *Array) attachSupervisor(cfg Config, shared *repair.RateLimiter) {
	if cfg.Spares == 0 && !cfg.Health.Detect && cfg.ScrubInterval == 0 {
		return
	}
	det := repair.DetectorConfig{
		FailAfter:        cfg.Health.FailAfter,
		HeartbeatTimeout: sim.Duration(cfg.Health.HeartbeatTimeout),
		Grace:            sim.Duration(cfg.Health.Grace),
		DegradeAfter:     cfg.Health.DegradeAfter,
		EvictAfter:       cfg.Health.EvictAfter,
	}
	if cfg.Health.Detect {
		det.HeartbeatEvery = sim.Duration(cfg.Health.HeartbeatEvery)
		if det.HeartbeatEvery <= 0 {
			det.HeartbeatEvery = 10 * sim.Millisecond
		}
	}
	a.sup = repair.NewSupervisor(a.cl.Rt, a.host, repair.Config{
		Detector: det,
		Rebuild:  repair.RebuilderConfig{RateMBps: cfg.RebuildRateMBps, Limiter: shared},
		Scrub: repair.ScrubberConfig{
			Interval: sim.Duration(cfg.ScrubInterval),
			RateMBps: cfg.ScrubRateMBps,
		},
		Pool: a.cl.Spares,
	}, a.cl.Tracer, a.log)
	a.scrub = a.sup.Scrubber()
	if cfg.Health.Detect || cfg.ScrubInterval > 0 {
		a.sup.Start()
	}
}

// call runs fn with safe access to host-confined state: inline on the
// simulation, marshalled onto the host loop on the realtime backend.
func (a *Array) call(fn func()) { a.cl.Rt.Call(fn) }

// Size returns the virtual device capacity in bytes.
func (a *Array) Size() int64 { return a.host.Size() }

// Now returns the current backend time: virtual on the simulation, elapsed
// wall time on the realtime backend.
func (a *Array) Now() time.Duration { return time.Duration(a.cl.Rt.Now()) }

// Run advances time until all outstanding work completes: on the simulation
// it drains the event queue; on the realtime backend it blocks until
// in-flight protocol work quiesces.
func (a *Array) Run() { a.cl.Rt.Run() }

// RunFor advances time by d (sleeping, on the realtime backend).
func (a *Array) RunFor(d time.Duration) { a.cl.Rt.RunFor(sim.Duration(d)) }

// Close releases backend resources: realtime event loops, transport
// listeners, and file-backed media. On the simulation it is a no-op. The
// array is unusable afterwards.
func (a *Array) Close() error { return a.cl.Close() }

// Write issues an asynchronous write; cb runs when the stripe operations
// complete. Call Run (or a *Sync method) to advance time.
func (a *Array) Write(off int64, data []byte, cb func(error)) {
	r := a.request()
	r.off, r.data, r.write = off, parity.FromBytes(data), cb
	a.submit(r)
}

// Read issues an asynchronous read.
func (a *Array) Read(off, n int64, cb func([]byte, error)) {
	r := a.request()
	r.off, r.n, r.reading, r.read = off, n, true, cb
	a.submit(r)
}

// request is one call on its way to the controller — on the realtime backend
// also the task that carries it onto the host loop — and, for a synchronous
// call, its rendezvous with the completion. Its steps are bound when the
// record is first built, so a call allocates nothing of its own.
type request struct {
	a       *Array
	off, n  int64
	data    parity.Buffer
	reading bool
	read    func([]byte, error)
	write   func(error)
	issueFn func()
	readFn  func(parity.Buffer, error)
	writeFn func(error)
	// A synchronous call has neither callback: the completion leaves its
	// result here and signals ch, and the caller returns the record.
	out []byte
	err error
	ch  chan struct{}
}

func (a *Array) request() *request {
	a.reqMu.Lock()
	r := a.reqs.Get()
	a.reqMu.Unlock()
	if r.a == nil {
		r.a, r.ch = a, make(chan struct{}, 1)
		r.issueFn, r.readFn, r.writeFn = r.issue, r.readDone, r.writeDone
	}
	return r
}

// submit issues r: inline on the simulation, on the host loop on the
// realtime backend.
func (a *Array) submit(r *request) {
	if a.realtime {
		a.cl.Rt.Defer(r.issueFn)
		return
	}
	r.issue()
}

func (r *request) issue() {
	if r.reading {
		r.a.dev.Read(r.off, r.n, r.readFn)
		return
	}
	r.a.dev.Write(r.off, r.data, r.writeFn)
}

func (r *request) readDone(b parity.Buffer, err error) {
	var out []byte
	switch {
	case err != nil:
	case b.Elided():
		out = make([]byte, b.Len())
	default:
		out = b.Data()
	}
	if cb := r.read; cb != nil {
		r.put()
		cb(out, err)
		return
	}
	r.out, r.err = out, err
	r.ch <- struct{}{}
}

func (r *request) writeDone(err error) {
	if cb := r.write; cb != nil {
		r.put()
		cb(err)
		return
	}
	r.err = err
	r.ch <- struct{}{}
}

// put returns r to the pool. A synchronous call whose context gave up leaves
// its record to the completion that may still come.
func (r *request) put() {
	r.n, r.data, r.reading, r.read, r.write, r.out, r.err = 0, parity.Buffer{}, false, nil, nil, nil, nil
	r.a.reqMu.Lock()
	r.a.reqs.Put(r)
	r.a.reqMu.Unlock()
}

// WriteContext writes and advances time until completion, honouring the
// context. A context deadline bounds the operation on top of the per-op
// OpDeadline machinery: on the simulation the remaining budget is spent as
// virtual time; on the realtime backend cancellation takes effect
// immediately. When the context expires the operation is abandoned (its
// outcome is unreported, like an NVMe command whose submitter gave up) and
// the error wraps context.DeadlineExceeded or context.Canceled.
func (a *Array) WriteContext(ctx context.Context, off int64, data []byte) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("draid: write: %w", err)
	}
	r := a.request()
	r.off, r.data = off, parity.FromBytes(data)
	_, err := a.await(ctx, r, "write")
	return err
}

// ReadContext reads and advances time until completion, honouring the
// context exactly as WriteContext does.
func (a *Array) ReadContext(ctx context.Context, off, n int64) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("draid: read: %w", err)
	}
	r := a.request()
	r.off, r.n, r.reading = off, n, true
	return a.await(ctx, r, "read")
}

// await issues the synchronous call r and blocks until it completes or ctx
// gives up.
func (a *Array) await(ctx context.Context, r *request, what string) ([]byte, error) {
	a.submit(r)
	dl, hasDL := ctx.Deadline()
	switch {
	case !hasDL && (!a.realtime || ctx.Done() == nil):
		// Drain as plain Run does. A cancellation-only context cannot
		// interrupt the deterministic engine mid-run (it was checked at issue
		// time); on the realtime backend waiting for quiescence makes a
		// dropped completion (crashed controller) surface as "did not
		// complete" rather than a hang.
		a.cl.Rt.Run()
	case !a.realtime:
		// Spend the wall-clock budget as virtual time, so the op deadline and
		// retry machinery run under it.
		if budget := time.Until(dl); budget > 0 {
			a.cl.Rt.RunUntil(a.cl.Rt.Now() + sim.Time(budget))
		}
		if len(r.ch) == 0 {
			return nil, fmt.Errorf("draid: %s: %w", what, context.DeadlineExceeded)
		}
	default:
		select {
		case <-r.ch:
			return r.result()
		case <-ctx.Done():
			return nil, fmt.Errorf("draid: %s: %w", what, ctx.Err())
		}
	}
	select {
	case <-r.ch:
		return r.result()
	default:
		return nil, fmt.Errorf("draid: %s did not complete", what)
	}
}

// result takes a completed synchronous call's outcome and returns r.
func (r *request) result() ([]byte, error) {
	out, err := r.out, r.err
	r.put()
	return out, err
}

// WriteSync writes and advances time until completion.
func (a *Array) WriteSync(off int64, data []byte) error {
	return a.WriteContext(context.Background(), off, data)
}

// ReadSync reads and advances time until completion.
func (a *Array) ReadSync(off, n int64) ([]byte, error) {
	return a.ReadContext(context.Background(), off, n)
}

// Trace returns the array's trace collector, or nil when Config.Observe was
// off. Export with WriteChrome (Perfetto-loadable trace_event JSON) or
// WriteFlame (plain-text summary); both are deterministic for a given seed.
func (a *Array) Trace() *Tracer { return a.cl.Tracer }

// ReadAt implements io.ReaderAt over ReadSync: reads ending past the device
// return the available bytes plus io.EOF, and reads starting past it return
// 0, io.EOF. Like every *Sync path, it advances virtual time.
func (a *Array) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("draid: negative offset %d: %w", off, ErrOutOfRange)
	}
	size := a.Size()
	if off >= size {
		return 0, io.EOF
	}
	n := int64(len(p))
	eof := false
	if off+n > size {
		n = size - off
		eof = true
	}
	b, err := a.ReadSync(off, n)
	if err != nil {
		return 0, err
	}
	copy(p, b)
	if eof {
		return int(n), io.EOF
	}
	return int(n), nil
}

// WriteAt implements io.WriterAt over WriteSync. Writes extending past the
// device fail whole with ErrOutOfRange (no partial write).
func (a *Array) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > a.Size() {
		return 0, fmt.Errorf("draid: write [%d,%d) of %d: %w",
			off, off+int64(len(p)), a.Size(), ErrOutOfRange)
	}
	if err := a.WriteSync(off, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Array is usable anywhere a random-access file is.
var (
	_ io.ReaderAt = (*Array)(nil)
	_ io.WriterAt = (*Array)(nil)
)

// FailDrive takes member i offline (node and drive) and degrades the array.
// When a supervisor is active (Spares or Health.Detect configured) it is
// notified, so a hot-spare rebuild launches on the next Run.
func (a *Array) FailDrive(i int) {
	a.cl.FailTarget(i)
	a.call(func() {
		a.host.SetFailed(i, true)
		if a.sup != nil {
			a.sup.NotifyFailed(i)
		}
	})
}

// CrashDrive takes member i offline WITHOUT telling the controller — the
// paper's fail-stop scenario. The host must notice on its own: op timeouts
// and missed heartbeats feed the failure detector (Config.Health), which
// escalates the member to failed and, with a spare available, triggers
// rebuild. Compare FailDrive, the administrative path.
func (a *Array) CrashDrive(i int) {
	a.cl.FailTarget(i)
}

// RecoverDrive returns member i to service WITHOUT resynchronizing its
// contents; use RebuildDrive to restore redundancy first.
func (a *Array) RecoverDrive(i int) {
	a.cl.RecoverTarget(i)
	a.call(func() { a.host.SetFailed(i, false) })
}

// RebuildDrive restores the redundancy lost with failed drive i through the
// disaggregated reconstruction path, one chunk at a time under its stripe's
// write lock — so a foreground write or destage can never strand stale data
// behind a rebuilt chunk. How depends on the layout, and the controller
// decides: a fixed array rebuilds in place onto the (replaced) drive and
// returns the member to service; a declustered array relocates the drive's
// chunks into the rows' distributed spare slots and retires the drive, which
// stays failed. stripes bounds the work for experiments; pass 0 to rebuild
// everything. Rebuilding a drive that is healthy, out of range or already
// rebuilding is an error and touches nothing. The rebuild runs unthrottled on
// a rebuilder of its own, next to whatever a supervisor is rebuilding.
func (a *Array) RebuildDrive(i int, stripes int64) error {
	err := fmt.Errorf("draid: rebuild of drive %d stalled", i)
	a.call(func() {
		reb := repair.NewRebuilder(a.cl.Rt, a.currentHost, repair.RebuilderConfig{}, nil, a.log, "rebuild")
		perr := reb.Run(func(h *core.HostController) (core.Repair, error) {
			return h.PlanRebuild(i, stripes, func() (core.NodeID, bool) {
				// In place: the replacement drive sits behind the member's own
				// endpoint and accepts writes while reads still avoid it.
				a.cl.RecoverTarget(i)
				return h.MemberNode(i), true
			})
		}, func(e error) { err = e })
		if perr != nil {
			err = fmt.Errorf("draid: %w", perr)
		}
	})
	a.cl.Rt.Run()
	return err
}

// AddDrive grows a declustered array by one drive: it claims an idle hot
// spare endpoint (provisioned by Config.Spares), adds it to the layout,
// and starts a background rebalance migrating a fair share of existing
// chunks onto it, paced by Config.RebuildRateMBps — its own budget: on a
// standalone array a rebuild running alongside draws from a separate bucket
// at the same rate (only a Pool shares one budget across its walks).
// The new drive index returns immediately; WaitRebalance (or Run plus
// Status().Rebalance) observes convergence. Foreground I/O keeps serving
// throughout — every migration runs under its stripe's write lock.
func (a *Array) AddDrive() (idx int, err error) {
	if a.sup == nil {
		return 0, fmt.Errorf("draid: AddDrive needs a supervisor (configure Spares): %w", ErrUnsupported)
	}
	a.call(func() {
		node, ok := a.cl.Spares.Claim()
		if !ok {
			err = fmt.Errorf("draid: no spare endpoint left to add")
			return
		}
		if idx, err = a.sup.AddDrive(node); err != nil {
			a.cl.Spares.Release(node) // never written: an aborted claim
		}
	})
	return idx, err
}

// RemoveDrive drains every chunk off drive i onto the remaining drives'
// spare slots and retires it from the layout — online shrink. Like
// AddDrive it returns immediately; WaitRebalance observes the drain.
func (a *Array) RemoveDrive(i int) (err error) {
	if a.sup == nil {
		return fmt.Errorf("draid: RemoveDrive needs a supervisor (configure Spares): %w", ErrUnsupported)
	}
	a.call(func() { err = a.sup.RemoveDrive(i) })
	return err
}

// WaitRebalance advances time until the rebalance or drain started by the
// last AddDrive/RemoveDrive converges, and returns its outcome.
func (a *Array) WaitRebalance() error {
	a.cl.Rt.Run()
	st := a.Status().Rebalance
	if st.Active {
		return fmt.Errorf("draid: rebalance stalled")
	}
	return st.Err
}

// Status takes a snapshot of the array's state in one step: inline on the
// simulation, one host-loop turn on the realtime backend, so no field is
// newer than another. It only reads — it starts nothing and arms no timer.
// Like every method that runs on the host loop, it must not be called from
// inside an I/O callback: on the realtime backend callbacks run on that
// loop, and the call would wait on itself.
func (a *Array) Status() Status {
	var st Status
	a.call(func() {
		h := a.host
		st = Status{
			Volume: int(a.hostCfg.Volume), Epoch: h.Epoch(), Fenced: h.Fenced(), Drives: h.Drives(),
			Failed: h.FailedMembers(), Spares: a.cl.Spares.Available(),
			Lost: h.LostRegions(), Counters: h.Stats(), Events: a.log.Events(),
		}
		for _, s := range a.cl.Servers {
			st.StaleRejects += s.StaleRejects()
		}
		if a.scrub != nil {
			st.Scrub = a.scrub.Status()
		}
		if a.sup != nil {
			st.Health = a.sup.Detector().States()
			st.Rebuild, st.Rebalance = a.sup.Rebuilder().Status(), a.sup.Rebalancer().Status()
			return
		}
		st.Health = make([]MemberState, st.Drives)
		for _, m := range st.Failed {
			st.Health[m] = Failed
		}
	})
	return st
}

// ScrubNow runs one full foreground scrub pass — verifying checksum and
// parity coherence on every stripe and repairing latent errors in place —
// and returns the resulting status. It advances virtual time until the pass
// completes and works with or without ScrubInterval; without Integrity a
// scrub can only re-silver parity to match the data.
func (a *Array) ScrubNow() (ScrubStatus, error) {
	var st ScrubStatus
	var err error
	done := false
	a.call(func() {
		if a.scrub == nil {
			a.scrub = repair.NewScrubber(a.cl.Rt, a.currentHost, repair.ScrubberConfig{RateMBps: a.scrubRate}, a.cl.Tracer, a.log)
		}
		a.scrub.RunPass(func(s repair.ScrubStatus, e error) { st, err, done = s, e, true })
	})
	a.cl.Rt.Run()
	if !done {
		return st, fmt.Errorf("draid: scrub pass stalled")
	}
	return st, err
}

// Injector is the fault-injection surface of an array, obtained from
// Array.Inject. Drive faults — media errors, bit rot, latent errors, slow
// drives — work on every backend, because every drive runs on the same
// media model; only BitRot on a SizeOnly array and the fabric faults on a
// transport without the hook report ErrUnsupported.
type Injector struct {
	a *Array
}

// Inject returns the array's fault-injection surface.
func (a *Array) Inject() Injector { return Injector{a: a} }

// MediaError plants a latent sector error under the virtual byte range
// [off, off+n): the member drives backing those bytes fail reads of the
// affected sectors with a media-error status until something rewrites them.
// With Integrity enabled, array reads still succeed via parity
// reconstruction and the damage is repaired in place (repair-on-read). A
// range outside the device reports ErrOutOfRange and injects nothing.
func (in Injector) MediaError(off, n int64) error {
	return in.a.injectOnRange(off, n, false, backend.Drive.InjectMediaError)
}

// BitRot silently corrupts the stored bytes under the virtual byte range
// [off, off+n). Without Integrity the rot is served to readers as-is (the
// silent-corruption baseline); with Integrity the per-block checksums catch
// it and reads are satisfied via reconstruction, then repaired. Requires
// stored data: on a SizeOnly array it reports ErrUnsupported. A range
// outside the device reports ErrOutOfRange and injects nothing.
func (in Injector) BitRot(off, n int64) error {
	return in.a.injectOnRange(off, n, true, backend.Drive.InjectBitRot)
}

// LatentErrorRate gives every member drive a spontaneous URE rate: each
// drive read grows, with the given probability, a new latent media-error
// range somewhere on the drive (the paper-scale 10^-15..10^-14 per-bit rates
// are impractical to simulate; this accelerates them). Seeded per drive from
// Config.Seed, so runs are reproducible. Pass 0 to stop.
func (in Injector) LatentErrorRate(rate float64) error {
	a := in.a
	a.call(func() {
		for m := 0; m < a.host.Drives(); m++ {
			a.cl.Drives[int(a.host.MemberNode(m))].SetLatentErrorRate(rate, a.seed+int64(m)*7919)
		}
	})
	return nil
}

// SlowDrive installs (or, with a SlowNone profile, clears) a deterministic
// latency-inflation profile on member drive i — the grey-failure injection:
// the drive keeps answering correctly, just slowly. On the simulation the
// profile scales the calibrated drive model's service rate and access
// latency; on the realtime backend it inflates a synthetic per-op latency
// (see SlowProfile.Base). Jitter is seeded per drive from Config.Seed.
func (in Injector) SlowDrive(i int, p SlowProfile) error {
	a := in.a
	var err error
	a.call(func() {
		if i < 0 || i >= a.host.Drives() {
			err = fmt.Errorf("draid: slow-drive injection: member %d out of range", i)
			return
		}
		a.cl.Drives[int(a.host.MemberNode(i))].SetSlowProfile(p.toBackend(), a.seed+int64(i)*7919+104729)
	})
	return err
}

// PartitionDir selects which direction(s) of a node pair a partition cuts:
// symmetric (PartitionBoth) or asymmetric (one way keeps delivering — the
// classic half-open failure).
type PartitionDir = backend.PartitionDir

// Partition directions.
const (
	PartitionBoth = backend.PartitionBoth
	PartitionAToB = backend.PartitionAToB
	PartitionBToA = backend.PartitionBToA
)

// PartitionHost cuts the fabric between the host controller and member drive
// i. Cut messages vanish after consuming send bandwidth, exactly like
// messages to a down node: the sender's op deadline notices, nothing else.
// Directions read host→drive as A→B. Reports ErrUnsupported on transports
// without partition hooks.
func (in Injector) PartitionHost(i int, dir PartitionDir) error {
	return in.a.partitionOp(core.HostID, i, dir, false)
}

// HealHostPartition restores the host↔drive i fabric in the given
// direction(s).
func (in Injector) HealHostPartition(i int, dir PartitionDir) error {
	return in.a.partitionOp(core.HostID, i, dir, true)
}

// PartitionPeers cuts the target-to-target fabric between member drives i
// and j — the peer-to-peer parity and reconstruction path — while both keep
// talking to the host. Directions read i→j as A→B. On the simulated fabric,
// drives co-located on one storage server (DrivesPerServer > 1) exchange
// local memory copies and cannot be partitioned from each other: the cut is
// a silent no-op there.
func (in Injector) PartitionPeers(i, j int, dir PartitionDir) error {
	return in.a.peerPartitionOp(i, j, dir, false)
}

// HealPeerPartition restores the drive i ↔ drive j fabric in the given
// direction(s).
func (in Injector) HealPeerPartition(i, j int, dir PartitionDir) error {
	return in.a.peerPartitionOp(i, j, dir, true)
}

// IsolateHost cuts the host off from every member drive in both directions —
// the full partition a takeover scenario starts from. Heal with
// HealHostIsolation.
func (in Injector) IsolateHost() error {
	return in.a.eachMember(func(i int) error {
		return in.PartitionHost(i, PartitionBoth)
	})
}

// HealHostIsolation reverses IsolateHost.
func (in Injector) HealHostIsolation() error {
	return in.a.eachMember(func(i int) error {
		return in.HealHostPartition(i, PartitionBoth)
	})
}

// DuplicateNext arms a one-shot duplication of the next capsule in each
// direction between member drive i and the host, and between member i and
// every other member — a retransmission the fabric resolved late. The
// protocol must shrug it off: writes are idempotent, completions for retired
// command IDs are discarded, and a reduction folds each part once. Reports
// ErrUnsupported on transports without duplication hooks.
func (in Injector) DuplicateNext(i int) error {
	a := in.a
	di, ok := a.cl.Fab.(backend.DuplicateInjector)
	if !ok {
		return fmt.Errorf("draid: duplicate injection: %w", ErrUnsupported)
	}
	var err error
	a.call(func() {
		if i < 0 || i >= a.host.Drives() {
			err = fmt.Errorf("draid: duplicate injection: member %d out of range", i)
			return
		}
		bID := a.host.MemberNode(i)
		di.DuplicateNext(core.HostID, bID)
		di.DuplicateNext(bID, core.HostID)
		for j := 0; j < a.host.Drives(); j++ {
			if peer := a.host.MemberNode(j); peer != bID {
				di.DuplicateNext(bID, peer)
				di.DuplicateNext(peer, bID)
			}
		}
	})
	return err
}

// SetEpochChecks enables or disables server-side epoch enforcement on every
// bdev of the cluster. Disabling it is a deliberate fault injection — the
// chaos harness's "teeth" mode — that reproduces the stale-destage
// corruption the membership layer exists to prevent: a superseded host's
// writes are applied instead of rejected. Checks are on by default; never
// disable them outside a test.
func (in Injector) SetEpochChecks(on bool) {
	for _, s := range in.a.cl.Servers {
		s.SetEpochChecks(on)
	}
}

// partitionOp validates a member index and applies one host↔member partition
// change.
func (a *Array) partitionOp(aID core.NodeID, b int, dir PartitionDir, heal bool) error {
	pi, ok := a.cl.Fab.(backend.PartitionInjector)
	if !ok {
		return fmt.Errorf("draid: partition injection: %w", ErrUnsupported)
	}
	var err error
	a.call(func() {
		if b < 0 || b >= a.host.Drives() {
			err = fmt.Errorf("draid: partition injection: member %d out of range", b)
			return
		}
		bID := a.host.MemberNode(b)
		if heal {
			pi.HealPartition(aID, bID, dir)
		} else {
			pi.InjectPartition(aID, bID, dir)
		}
	})
	return err
}

// peerPartitionOp applies one drive↔drive partition change.
func (a *Array) peerPartitionOp(i, j int, dir PartitionDir, heal bool) error {
	pi, ok := a.cl.Fab.(backend.PartitionInjector)
	if !ok {
		return fmt.Errorf("draid: partition injection: %w", ErrUnsupported)
	}
	var err error
	a.call(func() {
		if i < 0 || i >= a.host.Drives() || j < 0 || j >= a.host.Drives() || i == j {
			err = fmt.Errorf("draid: partition injection: member pair (%d,%d) invalid", i, j)
			return
		}
		aID, bID := a.host.MemberNode(i), a.host.MemberNode(j)
		if heal {
			pi.HealPartition(aID, bID, dir)
		} else {
			pi.InjectPartition(aID, bID, dir)
		}
	})
	return err
}

// eachMember runs fn over every member index, stopping at the first error.
func (a *Array) eachMember(fn func(int) error) error {
	var n int
	a.call(func() { n = a.host.Drives() })
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// FailDrive is Array.FailDrive, grouped here for discoverability.
func (in Injector) FailDrive(i int) { in.a.FailDrive(i) }

// CrashDrive is Array.CrashDrive, grouped here for discoverability.
func (in Injector) CrashDrive(i int) { in.a.CrashDrive(i) }

// injectOnRange maps a virtual byte range to the member drives and per-drive
// offsets backing it, following rebuild-time member moves onto spares, and
// applies fn to each piece. A range outside the device — which the layout
// would map onto other volumes' extents — reports ErrOutOfRange, and drives
// without stored data report ErrUnsupported when needStore is set; either
// way nothing is injected.
func (a *Array) injectOnRange(off, n int64, needStore bool, fn func(backend.Drive, int64, int64)) error {
	if off < 0 || n < 0 || n > a.Size()-off {
		return fmt.Errorf("draid: fault injection [%d,+%d) outside the %d-byte device: %w", off, n, a.Size(), ErrOutOfRange)
	}
	if needStore && !a.cl.Drives[0].StoresData() {
		return fmt.Errorf("draid: bit-rot injection without stored data: %w", ErrUnsupported)
	}
	a.call(func() {
		geo, lay := a.host.Geometry(), a.host.Layout()
		for _, e := range geo.Split(off, n) {
			drive := lay.Drive(e.Stripe, geo.DataDrive(e.Stripe, e.Chunk))
			fn(a.cl.Drives[int(a.host.MemberNode(drive))], lay.StripeBase(e.Stripe)+e.Off, e.Len)
		}
	})
	return nil
}

// FailoverHost crashes the current host controller and brings up a
// replacement that adopts the array: it inherits the member map and rebuild
// state, consumes the crashed controller's write-intent bitmap, resyncs
// exactly the dirty stripes (§5.4 — never a full-array scan), and resumes
// service. Outstanding I/O on the old controller is abandoned (its callbacks
// never fire), exactly as a real controller crash loses in-flight requests.
// Returns the number of stripes resynced.
func (a *Array) FailoverHost() (int, error) { return a.takeover("crash failover", true) }

// SeizeHost brings up a replacement controller WITHOUT crashing the current
// one — the partitioned-zombie takeover. Requires EpochFencing: the
// replacement is granted the next host epoch, so the storage servers fence
// the old controller's in-flight and retried commands with StatusStaleEpoch
// the moment the replacement's first command arrives, and the old
// controller's own I/O fails with ErrStaleEpoch (or ErrFenced once its lease
// lapses). Like FailoverHost, the replacement adopts the member map, staged
// writes, and write-intent bitmap, and resyncs exactly the dirty stripes.
// Returns the number of stripes resynced.
//
// With WriteBack on, configure HostLease (or heal the partition promptly):
// an isolated predecessor with no lease retries its stale destages forever,
// and the deterministic backends' run-to-quiescence sync ops wait for it.
func (a *Array) SeizeHost() (int, error) {
	if a.hostCfg.Epoch == 0 {
		return 0, fmt.Errorf("draid: SeizeHost requires EpochFencing: %w", ErrUnsupported)
	}
	return a.takeover("seize", false)
}

// takeover replaces the host controller — crashing it first, or seizing the
// array from it alive — and resyncs the dirty stripes the replacement
// inherits. Crash, epoch grant, adoption, rebind and the resync's fence all
// run in one host-loop turn, so the fence is out before anything else — a
// repair walk's timer, another goroutine's I/O — can reach the replacement;
// only the wait for the resync runs outside it. The takeover is logged with
// how it happened, the epoch granted and the dirty stripes inherited.
func (a *Array) takeover(how string, crash bool) (int, error) {
	if _, offloaded := a.dev.(*core.OffloadClient); offloaded {
		return 0, fmt.Errorf("draid: %s with an offloaded controller is not supported", how)
	}
	var dirty []int64
	var ferr error
	done := false
	a.call(func() {
		old, adopt := a.host, (*core.HostController).Seize
		if crash {
			old.Crash()
			adopt = (*core.HostController).Adopt
		}
		if a.hostCfg.Epoch != 0 {
			grantEpoch(a.cl, a.hostCfg.Volume, &a.hostCfg, a.hostCfg.Lease)
		}
		h := a.cl.NewDRAID(a.hostCfg) // takes over the fabric endpoint
		dirty = adopt(h, old)
		a.log.Add("failover", -1, fmt.Sprintf("%s: replacement controller at epoch %d, %d dirty stripe(s) to resync",
			how, h.Epoch(), len(dirty)))
		if a.sup != nil {
			a.sup.Rebind(h)
		}
		a.host, a.dev = h, h
		repair.Failover(a.cl.Rt, h, dirty, func(err error) { ferr, done = err, true })
	})
	a.cl.Rt.Run()
	if !done {
		return 0, fmt.Errorf("draid: failover resync stalled")
	}
	return len(dirty), ferr
}

// currentHost resolves the controller serving the array now — what repair
// managers call per item, so that their walks outlive a host failover.
func (a *Array) currentHost() *core.HostController { return a.host }

// HostTraffic returns the client-side NIC (outbound, inbound) bytes since
// the last ResetTraffic — the controller node's NIC normally, the thin
// client's NIC when the controller is offloaded. For a volume opened
// through a Pool, only this volume's share of the shared host NIC is
// reported.
func (a *Array) HostTraffic() (out, in int64) {
	if a.vol != nil {
		return a.cl.VolumeHostBytes(a.vol.ID)
	}
	if a.clientNode == nil { // realtime: transport-level accounting only
		return a.cl.TotalHostBytes()
	}
	return a.clientNode.BytesOut(), a.clientNode.BytesIn()
}

// ResetTraffic zeroes the NIC counters. On a Pool volume this resets the
// whole shared cluster's counters, co-tenant volumes included.
func (a *Array) ResetTraffic() {
	a.cl.ResetTraffic()
	if a.clientNode != nil {
		a.clientNode.ResetCounters()
	}
}

// Flush destages every staged write to the drives and advances time until
// the stage has drained, reporting the first destage failure (failed stripes
// stay staged for retry). Without Config.WriteBack it completes immediately.
func (a *Array) Flush() error {
	var ferr error
	done := false
	a.call(func() {
		a.host.FlushStage(func(err error) { ferr, done = err, true })
	})
	a.cl.Rt.Run()
	if !done {
		return fmt.Errorf("draid: flush stalled")
	}
	return ferr
}

// Cluster exposes the underlying testbed for advanced scenarios (fault
// injection, per-NIC inspection).
func (a *Array) Cluster() *cluster.Cluster { return a.cl }

// Controller exposes the dRAID host controller.
func (a *Array) Controller() *core.HostController { return a.host }

// BenchmarkSpec configures a Benchmark run.
type BenchmarkSpec struct {
	// IOSizeBytes per operation (default 128 KB).
	IOSizeBytes int64
	// ReadRatio in [0,1] (default 0 = write-only).
	ReadRatio float64
	// QueueDepth of the closed loop (default 32).
	QueueDepth int
	// Ramp and Measure windows of virtual time (defaults 30ms / 100ms).
	Ramp, Measure time.Duration
}

// BenchmarkResult reports a Benchmark run. The latency quantiles are the
// worse of the read and write distributions.
type BenchmarkResult struct {
	BandwidthMBps float64
	IOPS          float64
	AvgLatency    time.Duration
	P50Latency    time.Duration
	P99Latency    time.Duration
	P999Latency   time.Duration
	// Write-mix ratios over the run (ramp included): the fraction of
	// per-stripe write executions that ran as full-stripe, read-modify-write,
	// and reconstruct-write. They sum to 1 when any such write ran (fallback
	// and plain degraded writes are outside all three buckets).
	FullStripeFrac float64
	RMWFrac        float64
	RCWFrac        float64
}

// Benchmark runs an FIO-style random workload against the array.
func (a *Array) Benchmark(spec BenchmarkSpec) BenchmarkResult {
	if spec.IOSizeBytes == 0 {
		spec.IOSizeBytes = 128 << 10
	}
	if spec.QueueDepth == 0 {
		spec.QueueDepth = 32
	}
	if spec.Ramp == 0 {
		spec.Ramp = 30 * time.Millisecond
	}
	if spec.Measure == 0 {
		spec.Measure = 100 * time.Millisecond
	}
	before := a.Status().Counters
	r := fio.Run(fio.Job{
		Name: "draid", Dev: a.dev, Eng: a.cl.Rt,
		IOSize: spec.IOSizeBytes, ReadRatio: spec.ReadRatio,
		QueueDepth: spec.QueueDepth,
		Ramp:       sim.Duration(spec.Ramp), Measure: sim.Duration(spec.Measure),
	})
	after := a.Status().Counters
	worse := func(rd, wr float64) time.Duration {
		if wr > rd {
			return time.Duration(wr)
		}
		return time.Duration(rd)
	}
	res := BenchmarkResult{
		BandwidthMBps: r.BandwidthMBps(),
		IOPS:          r.IOPS(),
		AvgLatency:    time.Duration(r.AvgLatency() * 1e3),
		P50Latency:    worse(r.ReadLat.P50, r.WriteLat.P50),
		P99Latency:    worse(r.ReadLat.P99, r.WriteLat.P99),
		P999Latency:   worse(r.ReadLat.P999, r.WriteLat.P999),
	}
	full := float64(after.FullStripeWrites - before.FullStripeWrites)
	rmw := float64(after.RMWWrites - before.RMWWrites)
	rcw := float64(after.RCWWrites - before.RCWWrites)
	if total := full + rmw + rcw; total > 0 {
		res.FullStripeFrac = full / total
		res.RMWFrac = rmw / total
		res.RCWFrac = rcw / total
	}
	return res
}
