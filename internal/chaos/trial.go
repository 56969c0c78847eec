package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"draid"
	"draid/internal/oracle"
)

const (
	chunkSize     = 16 << 10
	regionStripes = 3
	opDeadline    = 40 * time.Millisecond
	// destageTick is the write-back idle-destage interval for trials. It must
	// exceed a worst-case failing destage (backfill read + write, each
	// OpDeadline × retries) or retries of stripes stranded by a partition
	// overlap and the sim engine never quiesces.
	destageTick = 500 * time.Millisecond
)

// trialResult is what one trial reports back to the sweep.
type trialResult struct {
	skipped      bool
	acked        int
	staleRejects int64
	lateAge      int
	vio          []Violation
}

// trialState carries one trial: the array under test and the oracle that
// models every write acknowledged to the workload.
type trialState struct {
	trialResult
	mode  Mode
	seed  int64
	fault Fault
	at    int

	a            *draid.Array
	o            *oracle.Oracle
	rng          *rand.Rand
	region       int64
	stripeData   int64
	member       int
	member2      int
	zombieDone   chan error
	zombieStripe int64
	skipRest     bool
	wseq         int
}

// trialConfig builds the array configuration for one (mode, seed) pair. The
// geometry is deliberately small — three workload stripes over 16 KiB
// chunks — so a full sweep stays cheap while every protocol path (staging,
// destage, parity reduce, degraded read, rebuild) still engages.
func trialConfig(mode Mode, seed int64) draid.Config {
	cfg := draid.Config{
		Level:         draid.Raid5,
		ChunkSize:     chunkSize,
		DriveCapacity: 1 << 20,
		Seed:          seed,
		EpochFencing:  true,
		MaxRetries:    2,
		OpDeadline:    opDeadline,
	}
	if mode.Backend == draid.BackendRealtime {
		cfg.Backend = draid.BackendRealtime
		cfg.Realtime.TCP = mode.TCP
	}
	if mode.Declustered {
		cfg.Drives, cfg.Declustered, cfg.ClusterDrives = 4, true, 6
	} else {
		cfg.Drives = 5
	}
	if mode.WriteBack {
		cfg.WriteBack, cfg.StageMB = true, 1
		cfg.DestageIntervalMs = int(destageTick / time.Millisecond)
	}
	if !mode.Teeth {
		// The zombie's lease is long enough to survive the takeover window:
		// stand-down must come from the epoch rejection, not the watchdog.
		// Teeth mode drops the lease entirely — a lease expiry would fence
		// the zombie and mask the corruption the sweep must catch.
		cfg.HostLease = 8 * opDeadline
	}
	return cfg
}

// Device is how the oracle reaches an array: every harness over a
// draid.Array checks it through this one adapter.
func Device(a *draid.Array) oracle.Device {
	return oracle.Device{
		Write: a.WriteSync,
		Read:  a.ReadSync,
		State: func() oracle.State {
			st := a.Status()
			s := oracle.State{Failed: len(st.Failed)}
			for _, lr := range st.Lost {
				s.Lost = append(s.Lost, oracle.Span(lr))
			}
			for _, e := range st.Events {
				s.Events = append(s.Events, e)
			}
			return s
		},
		MediaErr:  draid.ErrMediaError,
		LeakCheck: func() error { a.Run(); return a.Cluster().LeakCheck() },
		Fence:     func() error { _, err := a.FailoverHost(); return err },
	}
}

// runTrial plays one complete schedule: prime, workload with the fault
// placed before step `at`, heal, verify.
func runTrial(mode Mode, seed int64, fault Fault, at, steps int) (trialResult, error) {
	cfg := trialConfig(mode, seed)
	a, err := draid.New(cfg)
	if err != nil {
		return trialResult{}, err
	}
	defer a.Close()
	if mode.Teeth {
		a.Inject().SetEpochChecks(false)
	}
	budget := cfg.Level.ParityCount()
	t := &trialState{
		mode: mode, seed: seed, fault: fault, at: at,
		a:          a,
		stripeData: int64(cfg.Drives-budget) * cfg.ChunkSize,
	}
	t.region = regionStripes * t.stripeData
	t.o = oracle.New(Device(a), t.region, t.stripeData, budget)
	t.rng = rand.New(rand.NewSource(seed<<16 ^ int64(fault)<<8 ^ int64(at)))

	// Prime the whole region so the model covers every byte from the start.
	if err := t.o.Write(0, t.fill(t.region)); err != nil {
		return t.trialResult, fmt.Errorf("priming write: %w", err)
	}

	for i := 0; i < steps; i++ {
		if i == at {
			if err := t.inject(); err != nil {
				if errors.Is(err, draid.ErrUnsupported) {
					t.skipped = true
					return t.trialResult, nil
				}
				return t.trialResult, err
			}
		}
		if t.skipRest {
			continue
		}
		t.execStep(i)
	}
	t.heal()
	t.verify()
	if t.o.Clean() {
		// A trial that kept every promise must also leave nothing behind.
		t.o.Quiesce()
	}
	for _, s := range a.Cluster().Servers {
		t.lateAge = max(t.lateAge, s.LateAge())
	}
	t.acked = t.o.Acked
	for _, v := range t.o.Violations {
		t.vio = append(t.vio, Violation{Mode: t.mode, Seed: t.seed, Fault: t.fault, Step: t.at, Violation: v})
	}
	return t.trialResult, nil
}

// fill returns a deterministic, position-dependent pattern unique to this
// write — a misplaced or stale application never matches the model.
func (t *trialState) fill(n int64) []byte {
	t.wseq++
	b := make([]byte, n)
	x := byte(t.seed)*31 + byte(t.wseq)*17
	for i := range b {
		b[i] = x + byte(i)*7
	}
	return b
}

// execStep runs one workload step. The cycle mixes sub-stripe writes (the
// staged path under write-back), full-stripe writes (always write-through),
// reads, and flushes.
func (t *trialState) execStep(i int) {
	switch i % 4 {
	case 0: // sub-stripe write
		n := int64(2+t.rng.Intn(11)) << 10
		off := t.rng.Int63n(t.region - n + 1)
		t.o.Write(off, t.fill(n))
	case 1: // full-stripe write
		st := int64(t.rng.Intn(regionStripes))
		t.o.Write(st*t.stripeData, t.fill(t.stripeData))
	case 2: // read
		n := int64(4+t.rng.Intn(29)) << 10
		if n > t.region {
			n = t.region
		}
		t.o.Read(t.rng.Int63n(t.region-n+1), n)
	case 3: // flush (a read when nothing stages)
		if t.mode.WriteBack {
			_ = t.a.Flush() // may fail mid-fault; acked data stays staged
		} else {
			t.o.Read(0, t.stripeData)
		}
	}
}

// inject places the trial's fault. Returns draid.ErrUnsupported-wrapped
// errors for the sweep to skip; invariant problems go through violate.
func (t *trialState) inject() error {
	inj := t.a.Inject()
	n := t.a.Status().Drives
	t.member = t.rng.Intn(n)
	t.member2 = (t.member + 1 + t.rng.Intn(n-1)) % n
	switch t.fault {
	case FaultIsolateSeize:
		if err := inj.IsolateHost(); err != nil {
			return err
		}
		t.o.Outage()
		if t.mode.WriteBack {
			// A sub-stripe write acknowledged from the stage while the
			// fabric is cut: once acked it must survive the takeover.
			n := int64(6) << 10
			off := t.rng.Int63n(t.region - n + 1)
			t.o.Write(off, t.fill(n))
			// Fully cover a stripe through the staged path: two half-stripe
			// writes ack from the stage, the coverage triggers an immediate
			// destage that fails against the cut fabric, and the data stays
			// staged in the zombie. After the takeover the zombie's destage
			// tick replays it as pure full-stripe writes (no backfill reads
			// to starve) at the old epoch — the stale-destage capsule the
			// fence must bounce. verify overwrites this stripe at the new
			// epoch and then lets the tick fire.
			t.zombieStripe = regionStripes - 1
			half := t.stripeData / 2
			t.o.Write(t.zombieStripe*t.stripeData, t.fill(half))
			t.o.Write(t.zombieStripe*t.stripeData+half, t.fill(half))
		}
		// An in-flight write-through the zombie keeps retrying on its old
		// epoch after the replacement seizes the volume — the capsule the
		// membership layer exists to reject.
		off := t.stripeData
		data := t.fill(t.stripeData)
		t.o.Tear(off, t.stripeData)
		done := make(chan error, 1)
		t.zombieDone = done
		t.a.Write(off, data, func(err error) { done <- err })
		t.skipRest = true
	case FaultPartitionMember:
		t.o.Outage()
		return inj.PartitionHost(t.member, draid.PartitionBoth)
	case FaultPartitionMemberTx:
		t.o.Outage()
		return inj.PartitionHost(t.member, draid.PartitionAToB)
	case FaultPartitionPeers:
		t.o.Outage()
		return inj.PartitionPeers(t.member, t.member2, draid.PartitionBoth)
	case FaultCrashFailover:
		before := t.a.Status().Epoch
		if _, err := t.a.FailoverHost(); err != nil {
			t.o.Violate("crash failover: %v", err)
			return nil
		}
		if got := t.a.Status().Epoch; got <= before {
			t.o.Violate("failover did not advance the epoch: %d -> %d", before, got)
		}
	case FaultDelay:
		return inj.SlowDrive(t.member, draid.SlowProfile{Kind: draid.SlowConstant, Factor: 8})
	case FaultDuplicate:
		return inj.DuplicateNext(t.member)
	}
	return nil
}

// heal reverses the fault and, for the isolation schedule, performs the
// takeover: a replacement seizes the volume at a higher epoch while the
// predecessor is still live.
func (t *trialState) heal() {
	inj := t.a.Inject()
	t.o.Restore()
	switch t.fault {
	case FaultIsolateSeize:
		if err := inj.HealHostIsolation(); err != nil {
			t.o.Violate("heal isolation: %v", err)
			return
		}
		before := t.a.Status().Epoch
		if _, err := t.a.SeizeHost(); err != nil {
			t.o.Violate("seize after heal: %v", err)
			return
		}
		if got := t.a.Status().Epoch; got <= before {
			t.o.Violate("seize did not advance the epoch: %d -> %d", before, got)
		}
	case FaultPartitionMember:
		if err := inj.HealHostPartition(t.member, draid.PartitionBoth); err != nil {
			t.o.Violate("heal member partition: %v", err)
		}
	case FaultPartitionMemberTx:
		if err := inj.HealHostPartition(t.member, draid.PartitionAToB); err != nil {
			t.o.Violate("heal member partition: %v", err)
		}
	case FaultPartitionPeers:
		if err := inj.HealPeerPartition(t.member, t.member2, draid.PartitionBoth); err != nil {
			t.o.Violate("heal peer partition: %v", err)
		}
	case FaultDelay:
		if err := inj.SlowDrive(t.member, draid.SlowProfile{}); err != nil {
			t.o.Violate("restore slow member: %v", err)
		}
	}
}

// verify restores redundancy, repairs ambiguous ranges, lets stale retries
// land or exhaust, and then checks the invariants: every acked byte present,
// scrub clean, second scrub repairs nothing.
func (t *trialState) verify() {
	// Members struck out by op timeouts during the fault: within the parity
	// budget their chunks may hold writes they missed (applied degraded), so
	// rebuild them from the survivors. Past the budget nothing can have been
	// acknowledged degraded during the cut — the drives return as they were.
	failed := t.a.Status().Failed
	if len(failed) > 0 && len(failed) <= t.o.Budget() {
		for _, d := range failed {
			if err := t.a.RebuildDrive(d, 0); err != nil {
				t.o.Violate("post-heal rebuild of member %d: %v", d, err)
				return
			}
		}
	} else {
		for _, d := range failed {
			t.a.RecoverDrive(d)
		}
	}
	// Repair: rewrite every stripe a failed write tore as a fresh full
	// stripe — data and parity both become defined again.
	t.o.Repair(t.fill)
	if t.fault == FaultIsolateSeize && t.mode.WriteBack {
		// The zombie's stage still holds the fully covered stripe from the
		// isolation window. Overwrite it with fresh data at the new epoch,
		// then give the zombie's destage tick time to replay its stale copy:
		// with enforcement on the replay bounces off the servers; in teeth
		// mode it lands — and the sweep below must catch the corruption.
		if err := t.o.Write(t.zombieStripe*t.stripeData, t.fill(t.stripeData)); err != nil {
			t.o.Violate("overwrite of zombie-staged stripe: %v", err)
			return
		}
		t.a.RunFor(2*destageTick + opDeadline)
	}
	// Settle: the zombie's stale-epoch retries fire inside this window and
	// must bounce off the servers (or, in teeth mode, corrupt — which the
	// checks below then catch).
	t.a.RunFor(5 * opDeadline)
	if t.zombieDone != nil {
		select {
		case <-t.zombieDone: // resolved (rejection or timeout); either way ambiguous-then-repaired
		default:
		}
	}
	if t.mode.WriteBack {
		if err := t.a.Flush(); err != nil {
			t.o.Violate("post-heal flush: %v", err)
			return
		}
	}
	s1, err := t.a.ScrubNow()
	if err != nil {
		t.o.Violate("post-heal scrub: %v", err)
		return
	}
	if s1.Errors > 0 {
		t.o.Violate("post-heal scrub could not verify %d stripes", s1.Errors)
	}
	if t.fault == FaultDuplicate && s1.ParityRepairs > 0 {
		// Every write either landed whole or was rewritten above: parity
		// the scrub had to repair was written wrong under the duplicate.
		t.o.Violate("post-heal scrub repaired parity on %d stripes after a duplicate", s1.ParityRepairs)
	}
	t.o.Sweep()
	s2, err := t.a.ScrubNow()
	if err != nil {
		t.o.Violate("second scrub: %v", err)
		return
	}
	if d := s2.Errors - s1.Errors; d > 0 {
		t.o.Violate("scrub errors persist after repair: %d", d)
	}
	if d := s2.ParityRepairs - s1.ParityRepairs; d > 0 {
		t.o.Violate("parity still diverging on second scrub: %d repairs", d)
	}
	t.staleRejects = t.a.Status().StaleRejects
}
