package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"draid"
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
	// logTail is how many of the newest recovery-log entries a violation
	// carries.
	logTail = 8
)

// span is a half-open byte range [off, off+n) of the work region.
type span struct{ off, n int64 }

// trialResult is what one trial reports back to the sweep.
type trialResult struct {
	skipped      bool
	acked        int
	staleRejects int64
	vio          []Violation
}

// trialState carries one trial: the array under test, the byte-accurate
// model of every acknowledged write, and the ranges left ambiguous by
// failed writes (a torn write-through may have landed on any subset of
// members — those bytes are undefined until rewritten).
type trialState struct {
	trialResult
	mode  Mode
	seed  int64
	fault Fault
	at    int

	a            *draid.Array
	rng          *rand.Rand
	model        []byte
	region       int64
	stripeData   int64
	ambiguous    []span
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

// stripeDataBytes is the virtual bytes one stripe carries under cfg.
func stripeDataBytes(cfg draid.Config) int64 {
	data := int64(cfg.Drives - 1) // Raid5
	if cfg.Level == draid.Raid6 {
		data = int64(cfg.Drives - 2)
	}
	return data * cfg.ChunkSize
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
	t := &trialState{
		mode: mode, seed: seed, fault: fault, at: at,
		a:          a,
		stripeData: stripeDataBytes(cfg),
	}
	t.region = regionStripes * t.stripeData
	t.model = make([]byte, t.region)
	t.rng = rand.New(rand.NewSource(seed<<16 ^ int64(fault)<<8 ^ int64(at)))

	// Prime the whole region so the model covers every byte from the start.
	base := t.fill(t.region)
	if err := a.WriteSync(0, base); err != nil {
		return t.trialResult, fmt.Errorf("priming write: %w", err)
	}
	copy(t.model, base)
	t.acked++

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
	if len(t.vio) == 0 {
		t.checkLeaks()
	}
	return t.trialResult, nil
}

// checkLeaks is the teardown invariant: a trial that kept every promise must
// also leave nothing behind. The fault's strays — a reduction whose peer
// contribution was cut off, a duplicated anchor's second reduction — stay open
// on the servers until a fence or an epoch bump severs them, so the session is
// retired first (a failover fences every bdev); after that every pooled
// buffer must be back and every reduce table empty.
func (t *trialState) checkLeaks() {
	if _, err := t.a.FailoverHost(); err != nil {
		t.violate("teardown failover: %v", err)
		return
	}
	t.a.Run()
	if err := t.a.Cluster().LeakCheck(); err != nil {
		t.violate("teardown: %v", err)
	}
}

// violate records a breach together with the tail of the array's recovery
// log, which places it among the takeovers, rebuilds and scrubs before it.
func (t *trialState) violate(format string, args ...any) {
	events := t.a.Status().Events
	if len(events) > logTail {
		events = events[len(events)-logTail:]
	}
	t.vio = append(t.vio, Violation{
		Mode: t.mode, Seed: t.seed, Fault: t.fault, Step: t.at,
		Detail: fmt.Sprintf(format, args...), Events: events,
	})
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

// markAmbiguous records a failed write's range: a torn write-through may
// have landed on any subset of members, so those bytes are undefined until
// the post-heal repair rewrites them.
func (t *trialState) markAmbiguous(off, n int64) {
	t.ambiguous = append(t.ambiguous, span{off, n})
}

func (t *trialState) inAmbiguous(p int64) bool {
	for _, s := range t.ambiguous {
		if p >= s.off && p < s.off+s.n {
			return true
		}
	}
	return false
}

// ambiguousStripes lists the stripes any ambiguous span touches.
func (t *trialState) ambiguousStripes() []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for _, s := range t.ambiguous {
		for st := s.off / t.stripeData; st*t.stripeData < s.off+s.n; st++ {
			if !seen[st] {
				seen[st] = true
				out = append(out, st)
			}
		}
	}
	return out
}

// write runs one synchronous write and folds the outcome into the model:
// acknowledged writes must survive everything that follows; failed writes
// leave their range ambiguous.
func (t *trialState) write(off int64, data []byte) {
	if err := t.a.WriteSync(off, data); err == nil {
		copy(t.model[off:], data)
		t.acked++
	} else {
		t.markAmbiguous(off, int64(len(data)))
	}
}

// compare checks read bytes against the model, skipping ambiguous ranges.
func (t *trialState) compare(off int64, got []byte, what string) {
	for i := range got {
		p := off + int64(i)
		if t.inAmbiguous(p) {
			continue
		}
		if got[i] != t.model[p] {
			t.violate("%s: byte %d = %#x, model %#x (acked write lost or stale write applied)",
				what, p, got[i], t.model[p])
			return
		}
	}
}

// execStep runs one workload step. The cycle mixes sub-stripe writes (the
// staged path under write-back), full-stripe writes (always write-through),
// reads, and flushes.
func (t *trialState) execStep(i int) {
	switch i % 4 {
	case 0: // sub-stripe write
		n := int64(2+t.rng.Intn(11)) << 10
		off := t.rng.Int63n(t.region - n + 1)
		t.write(off, t.fill(n))
	case 1: // full-stripe write
		st := int64(t.rng.Intn(regionStripes))
		t.write(st*t.stripeData, t.fill(t.stripeData))
	case 2: // read
		n := int64(4+t.rng.Intn(29)) << 10
		if n > t.region {
			n = t.region
		}
		off := t.rng.Int63n(t.region - n + 1)
		if got, err := t.a.ReadSync(off, n); err == nil {
			// Mid-fault reads may fail (degraded past budget); only the
			// post-heal read must succeed. A read that does answer must
			// still answer correctly.
			t.compare(off, got, "mid-workload read")
		}
	case 3: // flush (a read when nothing stages)
		if t.mode.WriteBack {
			_ = t.a.Flush() // may fail mid-fault; acked data stays staged
		} else if _, err := t.a.ReadSync(0, t.stripeData); err == nil {
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
		if t.mode.WriteBack {
			// A sub-stripe write acknowledged from the stage while the
			// fabric is cut: once acked it must survive the takeover.
			n := int64(6) << 10
			off := t.rng.Int63n(t.region - n + 1)
			t.write(off, t.fill(n))
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
			t.write(t.zombieStripe*t.stripeData, t.fill(half))
			t.write(t.zombieStripe*t.stripeData+half, t.fill(half))
		}
		// An in-flight write-through the zombie keeps retrying on its old
		// epoch after the replacement seizes the volume — the capsule the
		// membership layer exists to reject.
		off := t.stripeData
		data := t.fill(t.stripeData)
		t.markAmbiguous(off, t.stripeData)
		done := make(chan error, 1)
		t.zombieDone = done
		t.a.Write(off, data, func(err error) { done <- err })
		t.skipRest = true
	case FaultPartitionMember:
		return inj.PartitionHost(t.member, draid.PartitionBoth)
	case FaultPartitionMemberTx:
		return inj.PartitionHost(t.member, draid.PartitionAToB)
	case FaultPartitionPeers:
		return inj.PartitionPeers(t.member, t.member2, draid.PartitionBoth)
	case FaultCrashFailover:
		before := t.a.Status().Epoch
		if _, err := t.a.FailoverHost(); err != nil {
			t.violate("crash failover: %v", err)
			return nil
		}
		if got := t.a.Status().Epoch; got <= before {
			t.violate("failover did not advance the epoch: %d -> %d", before, got)
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
	switch t.fault {
	case FaultIsolateSeize:
		if err := inj.HealHostIsolation(); err != nil {
			t.violate("heal isolation: %v", err)
			return
		}
		before := t.a.Status().Epoch
		if _, err := t.a.SeizeHost(); err != nil {
			t.violate("seize after heal: %v", err)
			return
		}
		if got := t.a.Status().Epoch; got <= before {
			t.violate("seize did not advance the epoch: %d -> %d", before, got)
		}
	case FaultPartitionMember:
		if err := inj.HealHostPartition(t.member, draid.PartitionBoth); err != nil {
			t.violate("heal member partition: %v", err)
		}
	case FaultPartitionMemberTx:
		if err := inj.HealHostPartition(t.member, draid.PartitionAToB); err != nil {
			t.violate("heal member partition: %v", err)
		}
	case FaultPartitionPeers:
		if err := inj.HealPeerPartition(t.member, t.member2, draid.PartitionBoth); err != nil {
			t.violate("heal peer partition: %v", err)
		}
	case FaultDelay:
		if err := inj.SlowDrive(t.member, draid.SlowProfile{}); err != nil {
			t.violate("restore slow member: %v", err)
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
	budget := 1 // Raid5
	if len(failed) > 0 && len(failed) <= budget {
		for _, d := range failed {
			if err := t.a.RebuildDrive(d, 0); err != nil {
				t.violate("post-heal rebuild of member %d: %v", d, err)
				return
			}
		}
	} else {
		for _, d := range failed {
			t.a.RecoverDrive(d)
		}
	}
	// Repair: rewrite every stripe an ambiguous (failed-write) range touches
	// as a fresh full stripe — data and parity both become defined again.
	for _, st := range t.ambiguousStripes() {
		data := t.fill(t.stripeData)
		if err := t.a.WriteSync(st*t.stripeData, data); err != nil {
			t.violate("post-heal repair write at stripe %d: %v", st, err)
			return
		}
		copy(t.model[st*t.stripeData:], data)
		t.acked++
	}
	t.ambiguous = nil
	if t.fault == FaultIsolateSeize && t.mode.WriteBack {
		// The zombie's stage still holds the fully covered stripe from the
		// isolation window. Overwrite it with fresh data at the new epoch,
		// then give the zombie's destage tick time to replay its stale copy:
		// with enforcement on the replay bounces off the servers; in teeth
		// mode it lands — and the read below must catch the corruption.
		data := t.fill(t.stripeData)
		if err := t.a.WriteSync(t.zombieStripe*t.stripeData, data); err != nil {
			t.violate("overwrite of zombie-staged stripe: %v", err)
			return
		}
		copy(t.model[t.zombieStripe*t.stripeData:], data)
		t.acked++
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
			t.violate("post-heal flush: %v", err)
			return
		}
	}
	s1, err := t.a.ScrubNow()
	if err != nil {
		t.violate("post-heal scrub: %v", err)
		return
	}
	if s1.Errors > 0 {
		t.violate("post-heal scrub could not verify %d stripes", s1.Errors)
	}
	got, err := t.a.ReadSync(0, t.region)
	if err != nil {
		t.violate("post-heal read: %v", err)
		return
	}
	t.compare(0, got, "post-heal read")
	s2, err := t.a.ScrubNow()
	if err != nil {
		t.violate("second scrub: %v", err)
		return
	}
	if d := s2.Errors - s1.Errors; d > 0 {
		t.violate("scrub errors persist after repair: %d", d)
	}
	if d := s2.ParityRepairs - s1.ParityRepairs; d > 0 {
		t.violate("parity still diverging on second scrub: %d repairs", d)
	}
	t.staleRejects = t.a.Status().StaleRejects
}
