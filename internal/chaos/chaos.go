// Package chaos explores protocol fault schedules deterministically: for a
// seeded workload it places one fault — partition, host crash, grey slowness,
// capsule duplication — at every step of the workload in turn, lets the
// schedule play out, heals, and then checks the membership invariants the
// epoch layer promises:
//
//   - no acknowledged write is ever lost,
//   - nothing a superseded (stale-epoch) host attempted becomes visible,
//   - the array converges: post-heal scrub runs clean and a second pass
//     repairs nothing.
//
// The first two, typed loss and a clean leak check are the acked-write
// oracle's (internal/oracle); every violation goes through it.
//
// Every trial is reproducible from (mode, seed, fault, step): the simulation
// backend replays bit-identically, and the realtime backends replay the same
// schedule against wall clocks. Teeth mode (Mode.Teeth) disables the
// servers' epoch enforcement via Injector.SetEpochChecks — the same sweep
// must then CATCH the stale-destage corruption, proving the harness can see
// the failure the membership layer exists to prevent.
package chaos

import (
	"fmt"
	"strings"

	"draid"
	"draid/internal/oracle"
)

// Fault enumerates the injectable fault kinds. Each trial places exactly one
// fault at one workload step.
type Fault int

const (
	// FaultIsolateSeize cuts the host off from every member mid-workload,
	// leaves acknowledged staged writes and an in-flight write-through
	// behind, heals, and has a replacement seize the volume at a higher
	// epoch — the partitioned-zombie takeover the epoch layer fences.
	FaultIsolateSeize Fault = iota
	// FaultPartitionMember cuts one host↔member pair symmetrically.
	FaultPartitionMember
	// FaultPartitionMemberTx cuts only host→member traffic: the member
	// keeps answering a host it can no longer hear.
	FaultPartitionMemberTx
	// FaultPartitionPeers cuts one member↔member pair — the peer-to-peer
	// parity/reconstruction path — while both keep talking to the host.
	FaultPartitionPeers
	// FaultCrashFailover crashes the host and adopts the volume on a
	// replacement at a higher epoch (§5.4 write-intent resync).
	FaultCrashFailover
	// FaultDelay turns one member grey: constant service-time inflation,
	// restored at heal time.
	FaultDelay
	// FaultDuplicate replays the next capsule in each direction between one
	// member and the host, and between that member and each of its peers — a
	// late fabric retransmission. It loses nothing, so the trial must end
	// with parity the first scrub finds coherent and, without a fence, no
	// reduction left open.
	FaultDuplicate

	numFaults
)

// AllFaults lists every fault kind, in enumeration order.
func AllFaults() []Fault {
	out := make([]Fault, numFaults)
	for i := range out {
		out[i] = Fault(i)
	}
	return out
}

// PartitionFaults lists only the partition-shaped faults — the acceptance
// sweep ("partition at every protocol step") and the teeth sweep use these.
func PartitionFaults() []Fault {
	return []Fault{FaultIsolateSeize, FaultPartitionMember, FaultPartitionMemberTx, FaultPartitionPeers}
}

// String names the fault for reports.
func (f Fault) String() string {
	switch f {
	case FaultIsolateSeize:
		return "isolate+seize"
	case FaultPartitionMember:
		return "partition-member"
	case FaultPartitionMemberTx:
		return "partition-member-tx"
	case FaultPartitionPeers:
		return "partition-peers"
	case FaultCrashFailover:
		return "crash-failover"
	case FaultDelay:
		return "delay"
	case FaultDuplicate:
		return "duplicate"
	}
	return fmt.Sprintf("Fault(%d)", int(f))
}

// Mode pins the substrate a sweep runs against.
type Mode struct {
	// Backend selects sim or realtime; TCP selects the socket transport on
	// realtime.
	Backend draid.BackendKind
	TCP     bool
	// Declustered runs the workload on a declustered layout (parity groups
	// rotating over a wider drive set) instead of the fixed geometry.
	Declustered bool
	// WriteBack stages sub-stripe writes host-side; off means every write
	// goes write-through.
	WriteBack bool
	// Teeth disables server-side epoch enforcement: the sweep must then
	// DETECT stale-write corruption instead of reporting clean.
	Teeth bool
}

// String names the mode for reports ("sim/fixed/wt", "realtime-tcp/decl/wb").
func (m Mode) String() string {
	var b strings.Builder
	if m.Backend == draid.BackendRealtime {
		b.WriteString("realtime")
		if m.TCP {
			b.WriteString("-tcp")
		}
	} else {
		b.WriteString("sim")
	}
	if m.Declustered {
		b.WriteString("/decl")
	} else {
		b.WriteString("/fixed")
	}
	if m.WriteBack {
		b.WriteString("/wb")
	} else {
		b.WriteString("/wt")
	}
	if m.Teeth {
		b.WriteString("/teeth")
	}
	return b.String()
}

// Options parameterizes one sweep.
type Options struct {
	Mode Mode
	// Seeds drive the per-trial workload shape; default 1..8.
	Seeds []int64
	// Faults to place; default AllFaults().
	Faults []Fault
	// Steps is the workload length; each fault is placed before step
	// 0..Steps-1 in turn. Default 6.
	Steps int
}

// Violation is one invariant breach, addressable enough to replay:
// rerun the same (mode, seed, fault, step) trial.
type Violation struct {
	Mode  Mode
	Seed  int64
	Fault Fault
	Step  int
	oracle.Violation
}

func (v Violation) String() string {
	return fmt.Sprintf("%s seed=%d fault=%s step=%d: %s", v.Mode, v.Seed, v.Fault, v.Step, v.Violation)
}

// Report aggregates a sweep.
type Report struct {
	// Trials ran to completion; Skipped hit an unsupported injection on
	// this backend and prove nothing.
	Trials  int
	Skipped int
	// AckedWrites counts writes acknowledged to the workload across all
	// trials — each one was later verified present.
	AckedWrites int
	// StaleRejects counts commands the bdevs rejected for carrying a
	// superseded epoch: evidence the fence actually engaged.
	StaleRejects int64
	// LateAge is the most reductions any server ended between a reduction's
	// end and a late duplicate of one of its capsules: how near a duplicate
	// came to outrunning the ring of ended reductions that drops it.
	LateAge int
	// Violations lists every invariant breach (empty on a clean sweep).
	Violations []Violation
}

// Clean reports whether the sweep found no invariant violations.
func (r Report) Clean() bool { return len(r.Violations) == 0 }

// Summary renders a one-line outcome.
func (r Report) Summary() string {
	return fmt.Sprintf("%d trials (%d skipped), %d acked writes verified, %d stale rejects, %d violations",
		r.Trials, r.Skipped, r.AckedWrites, r.StaleRejects, len(r.Violations))
}

// Run executes the sweep: every (seed, fault, step) triple in turn. The
// returned error covers harness malfunctions (an array that cannot even be
// built); invariant breaches go in Report.Violations.
func Run(opts Options) (Report, error) {
	seeds := opts.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	}
	faults := opts.Faults
	if len(faults) == 0 {
		faults = AllFaults()
	}
	steps := opts.Steps
	if steps <= 0 {
		steps = 6
	}
	var rep Report
	for _, seed := range seeds {
		for _, f := range faults {
			for at := 0; at < steps; at++ {
				tr, err := runTrial(opts.Mode, seed, f, at, steps)
				if err != nil {
					return rep, fmt.Errorf("chaos: trial %s seed=%d fault=%s step=%d: %w",
						opts.Mode, seed, f, at, err)
				}
				if tr.skipped {
					rep.Skipped++
					continue
				}
				rep.Trials++
				rep.AckedWrites += tr.acked
				rep.StaleRejects += tr.staleRejects
				rep.LateAge = max(rep.LateAge, tr.lateAge)
				rep.Violations = append(rep.Violations, tr.vio...)
			}
		}
	}
	return rep, nil
}
