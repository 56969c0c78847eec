package experiments

import (
	"fmt"

	"draid/internal/core"
	"draid/internal/fio"
	"draid/internal/raid"
)

// multivolNoisy is the noisy-neighbor experiment over the volume layer: two
// dRAID volumes carved out of one cluster — same drives, same host NIC —
// with a streaming sequential-write tenant (the aggressor) ramping up
// against a small-random-write tenant (the victim). The sweep raises the
// aggressor's queue depth from absent to saturating and reports both
// tenants' bandwidth and latency, showing the interference a shared
// substrate admits (the multi-app sharing question of §2/§7).
func multivolNoisy(o Options) (Figure, error) {
	qds := []int{0, 4, 16, 32}
	if o.Quick {
		qds = []int{0, 32}
	}
	series := []Series{{System: "victim rnd-wr"}, {System: "aggressor seq"}, {System: "victim (QoS)"}, {System: "aggressor (QoS)"}}
	var notes []string
	var isoP99 float64
	for _, qd := range qds {
		label := fmt.Sprintf("qd=%d", qd)
		var p99 [2]float64 // the victim's write tail: shared, then under QoS
		for i, qos := range []bool{false, true} {
			v, a, err := noisyPoint(o, qd, qos)
			if err != nil {
				return Figure{}, err
			}
			vp := toPoint(float64(qd), label, v)
			vp.Extra = v.WriteLat.P99 / 1e3 // victim tail is the story here
			series[2*i].Points = append(series[2*i].Points, vp)
			series[2*i+1].Points = append(series[2*i+1].Points, toPoint(float64(qd), label, a))
			p99[i] = v.WriteLat.P99
		}
		if qd == 0 {
			isoP99 = p99[0]
		} else if qd == qds[len(qds)-1] {
			notes = append(notes,
				fmt.Sprintf("victim write p99 @qd=%d: isolated %.0fus, shared %.0fus (%.1fx), QoS %.0fus (%.1fx)",
					qd, isoP99/1e3, p99[0]/1e3, p99[0]/isoP99, p99[1]/1e3, p99[1]/isoP99))
		}
	}
	return Figure{
		ID:         "multivol-noisy",
		Title:      "Noisy neighbor: two volumes sharing one cluster (victim 16K random write vs. aggressor full-stripe sequential write)",
		XLabel:     "aggr qd",
		ExtraLabel: "victim wr p99 us",
		Series:     series,
		Notes: append([]string{
			"both volumes are RAID-5 over the same 8 drives and share the host NIC",
			"victim holds qd=" + fmt.Sprint(o.QueueDepth) + " 16K random writes throughout",
			"QoS series admit both volumes through the shared weighted-fair scheduler (1.5 MiB window) with the aggressor's token bucket provisioned at 200 MB/s",
			"victim series carry write p99 (us) in the per-point Extra column",
		}, notes...),
	}, nil
}

// noisyPoint runs one measurement: the victim's closed loop plus, when
// aggrQD > 0, the aggressor's, concurrently on one shared cluster. With qos
// set, both volumes are admitted through the cluster's weighted-fair
// scheduler: the window bounds the bytes the aggressor can keep in flight,
// so the victim's small writes stop queueing behind full-stripe bursts, and
// the aggressor's token bucket caps its provisioned throughput — the fair
// window alone is work-conserving, which keeps one full-stripe op in the
// device FIFOs at all times and holds the victim's p99 near 1.8× isolated;
// only the rate cap's forced idle gaps recover the isolated tail.
func noisyPoint(o Options, aggrQD int, qos bool) (victim, aggr fio.Result, err error) {
	cl, err := newCluster(Setup{System: DRAID, Targets: 8, Seed: o.Seed, Backend: o.Backend, Realtime: o.Realtime})
	if err != nil {
		return victim, aggr, err
	}
	defer cl.Close()
	geo := raid.Geometry{Level: raid.Raid5, Width: 8, ChunkSize: 128 << 10}
	aggrCfg := core.Config{Geometry: geo}
	if qos {
		cl.EnableQoS(3 << 19)
		aggrCfg.QoSRate = 200e6
	}

	half := cl.DriveCapacity() / 2
	vAggr, err := cl.AddVolume("seq-tenant", half, aggrCfg)
	if err != nil {
		return victim, aggr, err
	}
	vVictim, err := cl.AddVolume("rand-tenant", 0, core.Config{Geometry: geo})
	if err != nil {
		return victim, aggr, err
	}

	victimRun := fio.Start(fio.Job{
		Name: "victim", Dev: vVictim.Host, Eng: cl.Rt,
		IOSize: 16 << 10, QueueDepth: o.QueueDepth,
		Ramp: o.Ramp, Measure: o.Measure, Seed: o.Seed,
	})
	end := victimRun.End
	var aggrRun *fio.Running
	if aggrQD > 0 {
		aggrRun = fio.Start(fio.Job{
			Name: "aggressor", Dev: vAggr.Host, Eng: cl.Rt,
			IOSize: geo.StripeDataSize(), QueueDepth: aggrQD, Sequential: true,
			Ramp: o.Ramp, Measure: o.Measure, Seed: o.Seed + 1,
		})
		end = max(end, aggrRun.End)
	}
	cl.Rt.RunUntil(end)
	aggr = fio.Result{Name: "aggressor"}
	cl.Rt.Call(func() {
		victim = victimRun.Result()
		if aggrRun != nil {
			aggr = aggrRun.Result()
		}
	})
	if n := victim.Errors + aggr.Errors; n > 0 {
		return victim, aggr, fmt.Errorf("experiments: multivol-noisy: %d I/Os failed", n)
	}
	cl.Rt.Run()
	return victim, aggr, cl.LeakCheck()
}
