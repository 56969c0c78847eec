// Command draid-fio runs an ad-hoc FIO-style workload against a chosen RAID
// system, either on the simulated testbed (virtual time, deterministic) or
// on the realtime backend (goroutine event loops, wall-clock timers, real
// protocol over channels or loopback TCP).
//
// Examples:
//
//	draid-fio -system draid -targets 8 -iosize 131072 -ratio 0 -qd 12
//	draid-fio -system spdk -targets 8 -fail 0 -ratio 1
//	draid-fio -system linux -level 6 -targets 8 -iosize 4096
//	draid-fio -backend realtime -targets 8 -iosize 131072 -qd 12
//	draid-fio -backend realtime -rt-tcp -fail 2 -ratio 0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"draid"
	"draid/internal/experiments"
	"draid/internal/fio"
	"draid/internal/raid"
	"draid/internal/sim"
)

func main() {
	var (
		backend = flag.String("backend", "sim", "sim | realtime (realtime supports -system draid only)")
		system  = flag.String("system", "draid", "draid | spdk | linux")
		targets = flag.Int("targets", 8, "stripe width / storage servers")
		level   = flag.Int("level", 5, "RAID level: 5 or 6")
		chunk   = flag.Int64("chunk", 512<<10, "chunk size in bytes")
		iosize  = flag.Int64("iosize", 128<<10, "I/O size in bytes")
		ratio   = flag.Float64("ratio", 0, "read ratio in [0,1]")
		qd      = flag.Int("qd", 12, "queue depth")
		fail    = flag.String("fail", "", "comma-separated member indices to pre-fail")
		ramp    = flag.Duration("ramp", 30*time.Millisecond, "warm-up window (virtual on sim, wall-clock on realtime)")
		measure = flag.Duration("measure", 100*time.Millisecond, "measurement window (virtual on sim, wall-clock on realtime)")
		seed    = flag.Int64("seed", 1, "workload seed")
		rtTCP   = flag.Bool("rt-tcp", false, "realtime: capsules over loopback TCP instead of in-process channels")
		rtDir   = flag.String("rt-dir", "", "realtime: store drives as files under this directory (default: in-memory)")
		hedge   = flag.String("hedge", "off", "read hedging policy: off | fixed-delay | adaptive-p95 | eager-parity (dRAID only)")
		hdDelay = flag.Duration("hedge-delay", 0, "fixed-delay hedge trigger (0 = 500µs default)")
		slow    = flag.String("slow", "", "grey-drive injection, comma-separated member=profile entries (profiles: const:F, fade:F:RAMP, stall:STALL/PERIOD; e.g. 2=const:10,4=stall:2ms/10ms)")
		wb      = flag.Bool("writeback", false, "host-side write-back staging: small writes ack from host memory and destage as full stripes (dRAID only)")
		stageMB = flag.Int("stage-mb", 0, "staging buffer size in MiB (0 = 16 MiB default; requires -writeback)")
		cacheMB = flag.Int("cache-mb", 0, "host clean-read cache size in MiB (0 = none; requires -writeback)")
	)
	flag.Parse()

	kind, err := draid.ParseBackend(*backend)
	if err != nil {
		fmt.Fprintf(os.Stderr, "draid-fio: %v\n", err)
		os.Exit(2)
	}
	var sys experiments.System
	switch strings.ToLower(*system) {
	case "draid":
		sys = experiments.DRAID
	case "spdk":
		sys = experiments.SPDK
	case "linux":
		sys = experiments.Linux
	default:
		fmt.Fprintf(os.Stderr, "draid-fio: unknown system %q\n", *system)
		os.Exit(2)
	}
	lvl := raid.Raid5
	if *level == 6 {
		lvl = raid.Raid6
	}
	var failed []int
	if *fail != "" {
		for _, part := range strings.Split(*fail, ",") {
			m, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "draid-fio: bad -fail entry %q\n", part)
				os.Exit(2)
			}
			failed = append(failed, m)
		}
	}
	hedgePolicy, err := draid.ParseHedgePolicy(*hedge)
	if err != nil {
		fmt.Fprintf(os.Stderr, "draid-fio: %v\n", err)
		os.Exit(2)
	}
	hedgeCfg := draid.HedgeConfig{Policy: hedgePolicy, Delay: *hdDelay}
	type slowEntry struct {
		member int
		prof   draid.SlowProfile
	}
	var slows []slowEntry
	if *slow != "" {
		for _, part := range strings.Split(*slow, ",") {
			mem, spec, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok {
				fmt.Fprintf(os.Stderr, "draid-fio: bad -slow entry %q (want member=profile)\n", part)
				os.Exit(2)
			}
			m, err := strconv.Atoi(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "draid-fio: bad -slow member %q\n", mem)
				os.Exit(2)
			}
			p, err := draid.ParseSlowProfile(spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "draid-fio: %v\n", err)
				os.Exit(2)
			}
			slows = append(slows, slowEntry{m, p})
		}
	}
	if !*wb && (*stageMB != 0 || *cacheMB != 0) {
		fmt.Fprintf(os.Stderr, "draid-fio: -stage-mb/-cache-mb require -writeback\n")
		os.Exit(2)
	}
	greyPath := hedgePolicy != draid.HedgeOff || len(slows) > 0 || *wb
	if greyPath && sys != experiments.DRAID {
		fmt.Fprintf(os.Stderr, "draid-fio: -hedge/-slow/-writeback run the dRAID protocol only (got -system %s)\n", *system)
		os.Exit(2)
	}

	job := fio.Job{
		Name:   string(sys),
		IOSize: *iosize, ReadRatio: *ratio, QueueDepth: *qd,
		Ramp: sim.Duration(*ramp), Measure: sim.Duration(*measure), Seed: *seed,
	}
	var res fio.Result
	var out, in int64
	var arr *draid.Array
	if sys != experiments.DRAID {
		// The baselines: host-reduce profiles of the same host controller.
		dev, cl := experiments.Build(experiments.Setup{
			System: sys, Targets: *targets, Level: lvl, ChunkSize: *chunk,
			FailedMembers: failed, Seed: *seed,
			Backend: kind, Realtime: draid.RealtimeOptions{TCP: *rtTCP, Dir: *rtDir},
		})
		defer cl.Close()
		job.Dev, job.Eng = dev, cl.Rt
		res = fio.Run(job)
		out, in = cl.TotalHostBytes()
	} else {
		a, err := draid.New(draid.Config{
			Backend:   kind,
			Realtime:  draid.RealtimeOptions{TCP: *rtTCP, Dir: *rtDir},
			Level:     lvl,
			Drives:    *targets,
			ChunkSize: *chunk,
			SizeOnly:  *rtDir == "", // file media need real bytes
			Seed:      *seed,
			Hedge:     hedgeCfg,
			WriteBack: *wb,
			StageMB:   *stageMB,
			CacheMB:   *cacheMB,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "draid-fio: %v\n", err)
			os.Exit(1)
		}
		defer a.Close()
		arr = a
		for _, e := range slows {
			if err := a.Inject().SlowDrive(e.member, e.prof); err != nil {
				fmt.Fprintf(os.Stderr, "draid-fio: %v\n", err)
				os.Exit(1)
			}
		}
		for _, m := range failed {
			a.FailDrive(m)
		}
		job.Dev, job.Eng = a.Controller(), a.Cluster().Rt
		res = fio.Run(job)
		out, in = a.HostTraffic()
	}
	fmt.Println(res.String())
	user := res.ReadBytes + res.WriteBytes
	if user > 0 {
		fmt.Printf("host NIC traffic: out=%.2fx in=%.2fx of user bytes\n",
			float64(out)/float64(user), float64(in)/float64(user))
	}
	if arr != nil && hedgePolicy != draid.HedgeOff {
		st := arr.Status().Counters
		fmt.Printf("hedging (%s): %d hedged reads, %d hedge wins\n",
			hedgePolicy, st.HedgedReads, st.HedgeWins)
	}
	if arr != nil && *wb {
		st := arr.Status().Counters
		fmt.Printf("writeback: %d staged writes, %d full-stripe destages, %d RCW destages, %d cache hits\n",
			st.StagedWrites, st.DestageFullStripe, st.DestageRCW, st.CacheHits)
	}
}
