package repair

import (
	"errors"
	"fmt"

	"draid/internal/backend"
	"draid/internal/core"
	"draid/internal/trace"
)

// Config assembles the supervision stack.
type Config struct {
	Detector DetectorConfig
	Rebuild  RebuilderConfig
	// Scrub configures the background scrubber; a zero Interval leaves
	// periodic scrubbing off (the scrubber still exists for on-demand use).
	Scrub ScrubberConfig
	// Spares is the hot-spare pool (fabric NodeIDs, consumed in order).
	// Ignored when Pool is set.
	Spares []core.NodeID
	// Pool, when non-nil, is a spare pool shared with other supervisors on
	// the same cluster: whichever volume's supervisor asks first claims the
	// spare (first-claim arbitration). When nil the supervisor wraps Spares
	// in a private pool.
	Pool *core.SparePool
}

// Supervisor ties detection to recovery: it installs a Detector as the
// host's health sink, and on each confirmed failure marks the member failed
// on the controller and — when a spare is available — launches a throttled
// rebuild onto it, queueing further failures until the current rebuild
// finishes. It is the subsystem that turns "a node stopped answering" into
// "the array healed itself".
type Supervisor struct {
	host *core.HostController

	det *Detector
	// reb rebuilds failed drives; rebal fills added drives and drains
	// leaving ones. Two managers, so a failure mid-rebalance is rebuilt
	// alongside it rather than behind it.
	reb, rebal *Rebuilder
	scrub      *Scrubber

	spares *core.SparePool
	queue  []int // failed drives awaiting a spare or the rebuilder
	log    *Log
}

// NewSupervisor wires detector + rebuilder onto the host and installs the
// health sink. Its recovery milestones, and those of its rebuilders and
// scrubber, go to log. Call Start to begin heartbeat probing.
func NewSupervisor(eng backend.Runtime, host *core.HostController, cfg Config, tracer *trace.Collector, log *Log) *Supervisor {
	pool := cfg.Pool
	if pool == nil {
		pool = core.NewSparePool(cfg.Spares)
	}
	s := &Supervisor{host: host, spares: pool, log: log}
	current := func() *core.HostController { return s.host }
	s.det = NewDetector(eng, current, cfg.Detector, tracer, s.handleFail)
	s.reb = NewRebuilder(eng, current, cfg.Rebuild, tracer, log, "rebuild")
	s.rebal = NewRebuilder(eng, current, cfg.Rebuild, tracer, log, "rebalance")
	s.scrub = NewScrubber(eng, current, cfg.Scrub, tracer, log)
	host.SetHealth(s.det)
	return s
}

// Start begins heartbeat probing (no-op when the detector has no period) and
// periodic scrub passes (no-op when the scrubber has no interval).
func (s *Supervisor) Start() {
	s.det.Start()
	s.scrub.Start()
}

// Stop halts probing and periodic scrubbing.
func (s *Supervisor) Stop() {
	s.det.Stop()
	s.scrub.Stop()
}

// Detector exposes the state machine (tests, status surfaces).
func (s *Supervisor) Detector() *Detector { return s.det }

// Rebuilder exposes the rebuild manager.
func (s *Supervisor) Rebuilder() *Rebuilder { return s.reb }

// Rebalancer exposes the online-expansion migration manager.
func (s *Supervisor) Rebalancer() *Rebuilder { return s.rebal }

// Scrubber exposes the background scrubber.
func (s *Supervisor) Scrubber() *Scrubber { return s.scrub }

// NotifyFailed is the administrative failure path (draid.FailDrive): the
// member is declared failed without waiting for evidence.
func (s *Supervisor) NotifyFailed(member int) { s.det.ForceFail(member) }

// Rebind moves the supervision stack onto a replacement controller after
// host failover. The replacement must already have adopted the array; a
// rebuild or rebalance under way carries on there from its next chunk.
func (s *Supervisor) Rebind(h *core.HostController) {
	s.host = h
	h.SetHealth(s.det)
}

// AddDrive grows a declustered volume onto a fresh fabric endpoint and
// rebalances its fair share of chunks onto it in the background. Returns
// the new drive index immediately; the rebalancer's Status tells when the
// rebalance has converged. Refused, changing nothing, while an earlier
// rebalance is still running.
func (s *Supervisor) AddDrive(node core.NodeID) (idx int, err error) {
	err = s.rebalance(func(h *core.HostController) (plan core.Repair, err error) {
		if idx, plan, err = h.AddDrive(node); err == nil {
			s.det.Grow(h.Drives())
			s.log.Add("drive-add", idx, fmt.Sprintf("node %d joined as drive %d; rebalancing", int(node), idx))
		}
		return plan, err
	})
	return idx, err
}

// RemoveDrive drains every chunk off a drive and retires it from the
// layout, in the background like AddDrive. The endpoint itself is not
// touched — fencing or reusing it is the caller's business.
func (s *Supervisor) RemoveDrive(drive int) error {
	return s.rebalance(func(h *core.HostController) (core.Repair, error) {
		plan, err := h.PlanDrain(drive)
		if err == nil {
			s.log.Add("drive-remove", drive, "draining chunks onto remaining drives")
		}
		return plan, err
	})
}

func (s *Supervisor) rebalance(plan func(*core.HostController) (core.Repair, error)) error {
	return s.rebal.Run(plan, func(err error) {
		st := s.rebal.Status()
		if err != nil {
			s.log.Add("rebalance-error", st.Drive, err.Error())
		} else {
			s.log.Add("rebalance-done", st.Drive, fmt.Sprintf("%s: %d chunk(s) moved, %d skipped", st.Label, st.Done-st.Skipped, st.Skipped))
		}
	})
}

// handleFail runs (deferred) on each healthy/suspect → failed transition.
func (s *Supervisor) handleFail(member int) {
	s.log.Add("failed", member, "detector confirmed failure")
	// The data path may already have marked it via §5.4; make it definitive
	// either way so no new I/O targets the dead member.
	s.host.SetFailed(member, true)
	s.queue = append(s.queue, member)
	s.tryRebuild()
}

// tryRebuild launches the next queued rebuild if the rebuilder is idle and
// the host can plan it — which, for a layout that rebuilds onto a spare
// endpoint, means one can be claimed. With a shared pool, the claim races
// supervisors of co-tenant volumes degraded by the same fault; engine order
// decides, and the loser keeps its drive queued until a spare frees up.
func (s *Supervisor) tryRebuild() {
	if len(s.queue) == 0 {
		return
	}
	drive := s.queue[0]
	err := s.reb.Run(func(h *core.HostController) (core.Repair, error) {
		plan, err := h.PlanRebuild(drive, 0, s.spares.Claim)
		switch {
		case errors.Is(err, core.ErrNoSpare):
			return plan, err // stays queued
		case err != nil:
			s.log.Add("rebuild-error", drive, err.Error())
		default:
			s.log.Add("rebuild-start", drive, fmt.Sprintf("%s: %d %s", plan.Label, plan.Items, plan.Unit))
		}
		s.queue = s.queue[1:]
		return plan, err
	}, func(err error) {
		switch {
		case err != nil:
			// A claimed spare may hold partial state; do not return it to
			// the pool. The drive stays failed (degraded service continues).
			s.log.Add("rebuild-error", drive, err.Error())
		case s.host.DriveFailed(drive):
			// Its chunks now live elsewhere; the drive itself stays failed
			// (and retired), so the detector state is deliberately kept.
			s.log.Add("rebuild-done", drive, "chunks relocated; drive retired")
		default:
			s.det.Reset(drive)
			s.log.Add("rebuild-done", drive, fmt.Sprintf("drive now served by node %d", int(s.host.MemberNode(drive))))
		}
		s.tryRebuild()
	})
	if err != nil && !errors.Is(err, ErrBusy) && !errors.Is(err, core.ErrNoSpare) {
		s.tryRebuild() // unplannable and dropped: on to the next
	}
}
