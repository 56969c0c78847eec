// Package backend defines the substrate interfaces the dRAID protocol runs
// on: a Runtime (event scheduling and time), a Transport (capsule delivery
// between the host and the storage targets, with the NVMe-oF command framing
// and checksum semantics), a Drive (block media with fault and media-error
// injection), and an Executor (CPU cost accounting).
//
// Two implementations exist:
//
//   - the deterministic simulation (internal/sim + internal/simnet +
//     internal/ssd, adapted by Engine in this package): single-goroutine
//     virtual time, byte-identical runs for a given seed — the golden-test
//     and torture substrate;
//   - the real-time backend (internal/backend/realtime): one goroutine per
//     node, wall-clock timers, in-process channels or TCP loopback for the
//     fabric, and memory- or file-backed media — the same protocol code
//     doing actual I/O.
//
// Both backends' drives are a timing model over the one Medium defined here
// — what a drive holds and how it fails — so every drive on every backend
// takes every drive-fault injection with the same semantics.
//
// internal/core, internal/cluster, internal/repair, the application stacks,
// Pool and the experiment harness speak only these interfaces; nothing above
// this package may assume which substrate is underneath. The deliberate
// exception is what reads a simulated quantity: the offloaded controller and
// co-located drives, and the five experiment IDs built on them or on
// simulated NICs, cores and server knobs (table1, fig17b, ablation-barrier,
// ablation-reducer, ablation-colocate).
package backend

import (
	"errors"
	"fmt"
	"math/rand"

	"draid/internal/integrity"
	"draid/internal/nvmeof"
	"draid/internal/parity"
	"draid/internal/sim"
)

// NodeID identifies an endpoint on the transport: HostID for the host,
// 0..n-1 for storage targets.
type NodeID int

// HostID is the host's NodeID.
const HostID NodeID = -1

// VolumeID identifies one virtual array (an NVMe namespace) among the many
// that may share a cluster. It rides in every capsule's NSID field, so the
// shared host endpoint can demultiplex completions to the owning controller
// and the servers can keep per-volume reduce state apart.
type VolumeID uint32

// Message is a capsule plus its (possibly elided) payload.
type Message struct {
	Cmd     nvmeof.Command
	Payload parity.Buffer
	From    NodeID
}

// Handler consumes messages delivered to a transport endpoint.
type Handler func(Message)

// Timer is a handle to a scheduled event that can be cancelled. Stop reports
// whether the event had not yet fired; stopping twice is a no-op.
type Timer interface {
	Stop() bool
}

// Rearmable is a foreground timer its owner arms again and again instead of
// scheduling a new one each time: Arm schedules the callback d from now,
// replacing an arming still pending, and Stop cancels it. Once either
// returns, no callback of an earlier arming runs.
type Rearmable interface {
	Timer
	Arm(d sim.Duration)
}

// TimerSource is implemented by runtimes that build Rearmable timers
// natively, at no cost per arming.
type TimerSource interface {
	NewTimer(fn func()) Rearmable
}

// NewTimer returns a Rearmable timer that runs fn on rt: rt's own, or one
// After per arming where rt builds none.
func NewTimer(rt Runtime, fn func()) Rearmable {
	if s, ok := rt.(TimerSource); ok {
		return s.NewTimer(fn)
	}
	return &afterTimer{rt: rt, fn: fn}
}

// afterTimer is Rearmable over After. An arming whose Stop lost the race
// with its fire (realtime: the callback was already posted) still runs its
// callback, which does nothing unless it is the current arming.
type afterTimer struct {
	rt  Runtime
	fn  func()
	t   Timer
	gen uint64
}

func (a *afterTimer) Arm(d sim.Duration) {
	a.Stop()
	gen := a.gen
	a.t = a.rt.After(d, func() {
		if gen == a.gen {
			a.t = nil
			a.fn()
		}
	})
}

func (a *afterTimer) Stop() bool {
	a.gen++
	t := a.t
	a.t = nil
	return t != nil && t.Stop()
}

// Runtime is the event-scheduling surface a controller runs on. On the
// simulation it is the discrete-event engine (virtual time, deterministic
// ordering); on the real-time backend it is one node's event loop
// (wall-clock time, per-loop FIFO ordering only).
//
// All controller state must be touched only from Runtime callbacks — the
// single-threaded discipline that is free on the simulation and enforced by
// loop confinement on the real-time backend.
type Runtime interface {
	// Now returns the current time in nanoseconds since the run started
	// (virtual on the simulation, wall-clock on realtime).
	Now() sim.Time
	// Defer schedules fn to run after the work already queued at this
	// instant — the "post to the event loop" primitive.
	Defer(fn func())
	// After schedules fn to run d nanoseconds from now as foreground work:
	// a Runner's Run does not return while it is pending.
	After(d sim.Duration, fn func()) Timer
	// AfterBG schedules fn as background work d nanoseconds from now:
	// periodic maintenance that must never keep Run from returning.
	AfterBG(d sim.Duration, fn func()) Timer
	// Rand returns this runtime's seeded random source. It must only be
	// used from Runtime callbacks.
	Rand() *rand.Rand
}

// Runner is the top-level control surface of an assembled bed: the Runtime
// of its coordinating (host) node plus the blocking entry points that
// advance or await work.
type Runner interface {
	Runtime
	// Run blocks until no foreground work remains.
	Run()
	// RunFor advances time by d (virtually, or by sleeping).
	RunFor(d sim.Duration)
	// RunUntil advances time to t, then waits for in-flight work to drain.
	RunUntil(t sim.Time)
	// Call executes fn inside the runtime's execution domain and waits for
	// it to return — the safe way for outside goroutines to touch
	// controller state. On the simulation it runs fn inline. It must not be
	// called from within a Runtime callback.
	Call(fn func())
}

// Executor models CPU cost: fn runs after d nanoseconds of core time,
// FIFO-queued behind earlier work on the same executor. The simulation backs
// it with cpu.Core/cpu.Pool reservations; the real-time backend executes
// immediately in submission order (real CPUs cost real time already).
type Executor interface {
	Exec(d sim.Duration, fn func())
}

// Transport connects the host and the storage targets: a host↔target star
// plus a target↔target mesh. Implementations must preserve the fabric
// contract the protocol depends on:
//
//   - delivery invokes the destination endpoint's handler from that
//     endpoint's Runtime (loop/engine), never inline in Send;
//   - messages to or from a down endpoint vanish (the sender's §5.4
//     deadline notices);
//   - capsules whose command-level checksum fails on receive are dropped,
//     as if lost (receiver-side CRC validation);
//   - per-endpoint delivery order is FIFO per sender.
//
// Payload ownership: Send hands the payload on. The sender must not write to
// it or Release it afterwards; the handler that receives the Message is the
// one to Release it, and a transport that drops a message (down endpoint,
// partition, checksum failure) releases the payload itself. Bytes are never
// copied in between — the receiver may be handed the sender's very storage —
// except for an injected duplicate, so that each delivery owns its own
// bytes. Whether the receiver may also write into a payload is the
// protocol's business (DESIGN.md "Payload ownership": command payloads are
// slices the host lends read-only, completion and peer payloads move
// outright).
type Transport interface {
	// Send transmits a capsule (and payload) from one endpoint to another,
	// passing ownership of the payload with it.
	Send(from, to NodeID, cmd nvmeof.Command, payload parity.Buffer)
	// Register installs the endpoint-wide handler (servers).
	Register(id NodeID, h Handler)
	// RegisterVolume installs a volume-scoped handler on an endpoint
	// (host controllers, demultiplexed by capsule NSID). Re-registering
	// replaces the handler (host failover).
	RegisterVolume(id NodeID, vol VolumeID, h Handler)
	// Width returns the number of targets (spares included).
	Width() int
	// Down reports whether an endpoint is unreachable.
	Down(id NodeID) bool
	// SetDown makes an endpoint unreachable (true) or reachable (false).
	SetDown(id NodeID, down bool)
}

// PartitionDir selects which directions of a node pair a partition cuts.
type PartitionDir int

const (
	// PartitionBoth cuts a→b and b→a (a symmetric partition).
	PartitionBoth PartitionDir = iota
	// PartitionAToB cuts only messages from a to b — the asymmetric case
	// where b still hears a's peer but not vice versa.
	PartitionAToB
	// PartitionBToA cuts only messages from b to a.
	PartitionBToA
)

// PartitionInjector is the optional network-partition surface of a
// Transport: messages crossing a partitioned pair vanish in the cut
// direction(s) exactly as if addressed to a down endpoint — the sender's
// §5.4 deadline machinery notices, nothing else does. Partitions compose
// with drop/delay/corruption injection and with SetDown; they are tracked
// per ordered pair, so asymmetric (one-way) partitions and partial heals
// are expressible. Backends that cannot cut links pairwise simply do not
// implement the interface, and callers surface ErrUnsupported.
type PartitionInjector interface {
	// InjectPartition cuts the pair (a, b) in the given direction(s).
	// Injecting an already-cut direction is a no-op.
	InjectPartition(a, b NodeID, dir PartitionDir)
	// HealPartition restores the pair in the given direction(s); healing a
	// healthy direction is a no-op.
	HealPartition(a, b NodeID, dir PartitionDir)
	// Partitioned reports whether messages from 'from' to 'to' are cut.
	Partitioned(from, to NodeID) bool
}

// DuplicateInjector is the optional message-duplication surface of a
// Transport: a one-shot trigger per ordered pair that makes the next message
// from 'from' to 'to' arrive twice back to back, modeling a retransmission
// the fabric resolved late. The protocol must tolerate it — writes are
// idempotent, completions for retired command IDs are discarded. Backends
// that cannot replay frames do not implement the interface.
type DuplicateInjector interface {
	// DuplicateNext arms the one-shot for the ordered pair (from, to).
	// Arming an already-armed pair is a no-op.
	DuplicateNext(from, to NodeID)
}

// Traffic is the optional byte-accounting surface of a Transport, mirroring
// the NIC counters of the simulated fabric: out counts at send (a message
// dropped downstream still consumed send-side bandwidth), in at delivery.
type Traffic interface {
	// HostBytes reports (out, in) wire bytes crossing the host endpoint.
	HostBytes() (out, in int64)
	// HostVolumeBytes reports the host bytes attributed to one volume.
	HostVolumeBytes(vol VolumeID) (out, in int64)
	// ResetTraffic zeroes all counters.
	ResetTraffic()
}

// DriveStats counts completed drive operations.
type DriveStats struct {
	ReadOps, WriteOps     int64
	TrimOps               int64
	ReadBytes, WriteBytes int64
	// MediaErrors counts reads that completed with ErrMediaError (injected
	// or latent). CorruptReads counts reads that returned silently rotted
	// payload bytes — the drive itself cannot see these; only an end-to-end
	// checksum above it can.
	MediaErrors  int64
	CorruptReads int64
}

// Drive is one block device. Operations are asynchronous: callbacks fire
// from the owning node's Runtime. A failed drive never completes operations
// (in-flight or future) — callers detect this via timeouts, as with a dead
// device on a real fabric.
type Drive interface {
	// Capacity returns the drive size in bytes.
	Capacity() int64
	// StoresData reports whether payload bytes are materialized (false in
	// size-only benchmark mode: reads return elided buffers).
	StoresData() bool
	// Read fetches n bytes at off. cb receives the payload (zeros for
	// never-written ranges) or an error; reads overlapping an unreadable
	// media range complete with a *MediaError naming the overlap. The payload
	// is a private copy of the media that cb's caller now owns exclusively:
	// it may be mutated in place, handed on through Transport.Send, and must
	// be Released by its last owner (drives may draw it from a free list).
	Read(off, n int64, cb func(parity.Buffer, error))
	// Write persists b at off. A successful write clears media-error state
	// over its range (sector remap on program). The drive borrows b until cb
	// runs — bytes reach the media at completion, not at submission — so the
	// caller must leave b unmodified and unreleased until then. (A drive may
	// copy earlier; the simulated SSD does.) A failed drive never calls cb
	// and so never gives the buffer back. An elided b stores nothing: the
	// range keeps the bytes it held.
	Write(off int64, b parity.Buffer, cb func(error))
	// Trim discards [off, off+n): subsequent reads return zeros. Like a
	// write, it clears media-error state over the range.
	Trim(off, n int64, cb func(error))
	// PeekSync reads stored bytes immediately, bypassing timing and queues
	// — for integrity checksums and test assertions only. Returns nil when
	// the drive does not store data.
	PeekSync(off, n int64) []byte
	// Fail puts the drive into the failed state; Recover returns it to
	// service with stored data retained (a transient failure).
	Fail()
	Recover()
	Failed() bool
	// Stats returns operation counters.
	Stats() DriveStats

	// InjectMediaError marks [off, off+n) unreadable until rewritten.
	InjectMediaError(off, n int64)
	// InjectBitRot silently corrupts the stored bytes of [off, off+n).
	// Requires stored data.
	InjectBitRot(off, n int64)
	// SetLatentErrorRate gives each read op probability rate of developing
	// a new unreadable range; the draw uses a private source seeded here.
	SetLatentErrorRate(rate float64, seed int64)
	// MediaErrorRanges returns the currently unreadable ranges.
	MediaErrorRanges() []integrity.Span
	// SetSlowProfile installs (or, with Kind SlowNone, clears) the drive's
	// latency-inflation profile. seed feeds the profile's private jitter
	// source so injection stays reproducible.
	SetSlowProfile(p SlowProfile, seed int64)
	// SlowProfileInstalled returns the active profile (Kind SlowNone when
	// healthy).
	SlowProfileInstalled() SlowProfile
}

// SlowKind names a grey-failure latency profile: the drive keeps answering
// correctly, just late.
type SlowKind int

const (
	// SlowNone disables injection (the zero value).
	SlowNone SlowKind = iota
	// SlowConstant inflates every operation's modeled latency by Factor
	// from the moment of injection.
	SlowConstant
	// SlowFading ramps the inflation factor linearly from 1 up to Factor
	// over Ramp, then holds — a drive that is wearing out.
	SlowFading
	// SlowStall freezes the drive periodically: operations completing
	// inside the first Stall of every Period are held until the window
	// ends — firmware garbage collection, internal retries.
	SlowStall
)

// SlowProfile describes deterministic per-drive latency inflation. The same
// profile drives both backends: the simulated SSD scales its modeled service
// and access latency by FactorAt, while realtime drives (which have no
// timing model of their own) add (FactorAt-1)×Base of wall-clock delay per
// operation. StallDelay applies identically on both.
type SlowProfile struct {
	Kind SlowKind
	// Factor is the steady-state latency multiplier (SlowConstant,
	// SlowFading). Values ≤ 1 mean no inflation.
	Factor float64
	// Ramp is the SlowFading ramp length.
	Ramp sim.Duration
	// Period and Stall shape SlowStall: every Period, the drive stalls for
	// the first Stall of the cycle.
	Period, Stall sim.Duration
	// Base is the synthetic per-op latency inflated by drives without a
	// timing model (the realtime backend). Zero means 100µs. The simulated
	// SSD ignores it — it scales its own modeled latency instead.
	Base sim.Duration
	// Jitter, when > 0, multiplies each op's inflation by a uniform draw
	// from [1-Jitter, 1+Jitter] using the injection seed, so repeated runs
	// stay reproducible while individual ops vary.
	Jitter float64
}

// FactorAt returns the latency multiplier for an operation issued at now
// under a profile injected at since. rng carries the injection-seeded source
// for Jitter; it may be nil when Jitter is 0.
func (p SlowProfile) FactorAt(now, since sim.Time, rng *rand.Rand) float64 {
	f := 1.0
	switch p.Kind {
	case SlowConstant:
		f = p.Factor
	case SlowFading:
		if p.Ramp <= 0 || now-since >= sim.Time(p.Ramp) {
			f = p.Factor
		} else {
			f = 1 + (p.Factor-1)*float64(now-since)/float64(p.Ramp)
		}
	}
	if f < 1 {
		f = 1
	}
	if f > 1 && p.Jitter > 0 && rng != nil {
		f = 1 + (f-1)*(1+p.Jitter*(2*rng.Float64()-1))
	}
	return f
}

// StallDelay returns the extra completion delay of an operation issued at
// now under a SlowStall profile injected at since; zero for other kinds.
func (p SlowProfile) StallDelay(now, since sim.Time) sim.Duration {
	if p.Kind != SlowStall || p.Period <= 0 || p.Stall <= 0 {
		return 0
	}
	phase := sim.Duration((now - since) % sim.Time(p.Period))
	if phase < p.Stall {
		return p.Stall - phase
	}
	return 0
}

// BaseLatency returns the synthetic per-op latency realtime drives inflate.
func (p SlowProfile) BaseLatency() sim.Duration {
	if p.Base > 0 {
		return p.Base
	}
	return 100 * sim.Microsecond
}

// BufferAccounting is the optional leak-check surface of anything that owns
// a parity.Pool (realtime drives, server controllers): after a run drains,
// BufferStats().Outstanding() counts the buffers some owner never released.
type BufferAccounting interface {
	BufferStats() parity.PoolStats
}

// EndpointBufferAccounting is BufferAccounting for a transport that draws
// what each endpoint receives from that endpoint's own pool (realtime TCP):
// EndpointBufferStats(id) counts the buffers delivered to id and not yet
// released by it, so a leak check can skip an endpoint that went down with
// what it held.
type EndpointBufferAccounting interface {
	BufferAccounting
	EndpointBufferStats(id NodeID) parity.PoolStats
}

// ErrUnsupported reports an operation the active backend cannot perform —
// a fabric fault on a transport without the hook, or bit rot on drives that
// store no bytes.
var ErrUnsupported = errors.New("backend: operation not supported by this backend")

// ErrMediaError is an unrecoverable read error (URE): the drive is alive and
// keeps serving other LBAs, but this range is gone. Unlike a failed drive,
// the operation completes — with this error instead of data.
var ErrMediaError = errors.New("drive: unrecoverable media error")

// MediaError reports the precise unreadable sub-range of a failed read, so
// upper layers can reconstruct exactly the bytes that are lost rather than
// the whole request. It unwraps to ErrMediaError.
type MediaError struct {
	Off, N int64 // absolute drive byte range that could not be read
}

func (e *MediaError) Error() string {
	return fmt.Sprintf("drive: unrecoverable media error at [%d,+%d)", e.Off, e.N)
}

// Unwrap makes errors.Is(err, ErrMediaError) hold.
func (e *MediaError) Unwrap() error { return ErrMediaError }
