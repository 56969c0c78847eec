package experiments

import (
	"fmt"
	"time"

	"draid"
	"draid/internal/fio"
)

// greyfail is the grey-failure experiment: one member of an 8-wide RAID-5
// array is made deterministically slow (10× service-time inflation — it
// answers correctly, just late) and a full-stripe random-read workload sweeps
// queue depth under each hedging policy. The figure reports read p99 (Lat)
// and p999 (Extra) per policy: without hedging every read that touches the
// grey member waits out its straggler; with hedging the host solves the
// straggler's chunk through parity from the k completions it already holds.
// The adaptive series also feeds the failure detector's slow-strike lattice,
// so the grey member is eventually evicted and reads continue degraded at
// zero extra cost — the "adaptive/no-evict" series isolates what eviction
// buys. Notes carry the drive-read amplification each policy paid.
func greyfail(o Options) (Figure, error) {
	qds := []int{8, 16, 32}
	policies := []greyfailPolicy{
		{label: "off", policy: draid.HedgeOff},
		{label: "fixed-delay", policy: draid.HedgeFixedDelay},
		{label: "adaptive-p95", policy: draid.HedgeAdaptiveP95},
		{label: "adaptive/no-evict", policy: draid.HedgeAdaptiveP95, noEvict: true},
		{label: "eager-parity", policy: draid.HedgeEagerParity},
	}
	if o.Quick {
		qds = []int{16}
		policies = policies[:3]
	}
	// The simulated drive's slow profile scales a calibrated service time.
	// The realtime drives' inflates a synthetic latency, so the penalty must
	// clear wall-clock scheduling noise: 20x on a 500us base pins the
	// straggler ~9.5ms late, far above any hedge path, and the fixed-delay
	// trigger moves out of that noise with it.
	slow := draid.SlowProfile{Kind: draid.SlowConstant, Factor: 10}
	var fixedDelay time.Duration
	if o.realtime() {
		slow.Factor, slow.Base = 20, 500*time.Microsecond
		fixedDelay = 2 * time.Millisecond
	}

	names := make([]string, len(policies))
	for i, pol := range policies {
		names[i] = pol.label
	}
	notes := make([]string, len(policies)) // each policy's cost, read at its deepest queue
	series, err := runGrid(o, names, len(qds), func(si, pi int) (Point, error) {
		r, note, err := greyfailPoint(o, policies[si], fixedDelay, slow, qds[pi])
		if pi == len(qds)-1 {
			notes[si] = note
		}
		return Point{
			X: float64(qds[pi]), Label: fmt.Sprintf("qd=%d", qds[pi]),
			BW:  r.BandwidthMBps(),
			Lat: r.ReadLat.P99 / 1e3, Extra: r.ReadLat.P999 / 1e3,
		}, err
	})
	return Figure{
		ID:         "greyfail",
		Title:      fmt.Sprintf("Grey failure: read p99 vs hedging policy (8-wide RAID-5, full-stripe reads, member 2 at %gx latency)", slow.Factor),
		XLabel:     "queue depth",
		ExtraLabel: "p999 us",
		Series:     series,
		Notes: append([]string{
			"Lat column is read p99 in us; Extra (per-point) is p999",
			fmt.Sprintf("slow member injected via SlowProfile{const,%gx}; hedge solves k-of-n through parity", slow.Factor),
		}, notes...),
	}, err
}

type greyfailPolicy struct {
	label   string
	policy  draid.HedgePolicy
	noEvict bool
}

// greyfailPoint measures one (policy, queue depth) cell on a fresh array and
// returns the fio result plus a note summarizing what the policy cost:
// drive-read amplification over the user bytes, hedge counts, and whether
// the detector evicted the grey member.
func greyfailPoint(o Options, pol greyfailPolicy, fixedDelay time.Duration, slow draid.SlowProfile, qd int) (fio.Result, string, error) {
	evictAfter := 0 // default (64)
	if pol.noEvict {
		evictAfter = -1
	}
	arr, err := draid.New(draid.Config{
		Backend: o.Backend, Realtime: o.Realtime,
		Drives: 8, ChunkSize: 64 << 10, SizeOnly: true, Seed: o.Seed,
		Hedge: draid.HedgeConfig{Policy: pol.policy, Delay: fixedDelay},
		Health: draid.HealthConfig{
			// The detector here consumes only slow strikes from the hedger;
			// park the heartbeat prober far beyond the run so fault evidence
			// cannot contribute.
			Detect: true, HeartbeatEvery: time.Hour, EvictAfter: evictAfter,
		},
	})
	if err != nil {
		return fio.Result{}, "", err
	}
	defer arr.Close()
	if err := arr.Inject().SlowDrive(2, slow); err != nil {
		return fio.Result{}, "", err
	}
	geo := arr.Controller().Geometry()
	r := fio.Run(fio.Job{
		Name: pol.label, Dev: arr.Controller(), Eng: arr.Cluster().Rt,
		IOSize: geo.StripeDataSize(), ReadRatio: 1, QueueDepth: qd,
		Ramp: o.Ramp, Measure: o.Measure, Seed: o.Seed,
	})

	var driveBytes int64
	for _, d := range arr.Cluster().Drives {
		driveBytes += d.Stats().ReadBytes
	}
	status := arr.Status()
	st := status.Counters
	amp := 0.0
	if st.UserBytesRead > 0 {
		amp = 100 * (float64(driveBytes)/float64(st.UserBytesRead) - 1)
	}
	evicted := "grey member still in service"
	if h := status.Health; h[2] == draid.Failed {
		evicted = "grey member evicted"
	} else if h[2] == draid.Degraded || h[2] == draid.Suspect {
		evicted = "grey member " + h[2].String()
	}
	note := fmt.Sprintf("%s @qd=%d: %+.1f%% drive-read amplification, %d hedged / %d wins, %s",
		pol.label, qd, amp, st.HedgedReads, st.HedgeWins, evicted)
	return r, note, nil
}
