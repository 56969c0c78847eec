// Command draid-bench regenerates the paper's tables and figures — on the
// simulated testbed, or the dRAID series of them on the realtime backend —
// and prints the same rows/series the paper plots.
//
// Usage:
//
//	draid-bench -list
//	draid-bench -fig table1
//	draid-bench -fig fig10,fig12
//	draid-bench -fig all -quick
//	draid-bench -backend realtime -fig fig10 -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"draid"
	"draid/internal/experiments"
	"draid/internal/sim"
)

func main() {
	var (
		backendF = flag.String("backend", "sim", "sim | realtime (realtime reruns the dRAID series of any listed id on wall clocks; -list shows the ids it can run)")
		fig      = flag.String("fig", "", "experiment id(s), comma-separated, or 'all'")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		quick    = flag.Bool("quick", false, "shrink sweeps to endpoints (smoke run)")
		ramp     = flag.Duration("ramp", 30*time.Millisecond, "per-point warm-up window (virtual on sim, wall-clock on realtime)")
		measure  = flag.Duration("measure", 100*time.Millisecond, "per-point measurement window (virtual on sim, wall-clock on realtime)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		parallel = flag.Int("parallel", 1, "max concurrent simulations (results are identical for any value; realtime always runs serially)")
		rtTCP    = flag.Bool("rt-tcp", false, "realtime: capsules over loopback TCP instead of in-process channels")
		rtDir    = flag.String("rt-dir", "", "realtime: store drives as files under this directory (default: in-memory)")
	)
	flag.Parse()

	kind, err := draid.ParseBackend(*backendF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "draid-bench: %v\n", err)
		os.Exit(2)
	}
	opts := experiments.Options{
		Quick:    *quick,
		Ramp:     sim.Duration(*ramp),
		Measure:  sim.Duration(*measure),
		Seed:     *seed,
		Parallel: *parallel,
		Backend:  kind,
		Realtime: draid.RealtimeOptions{TCP: *rtTCP, Dir: *rtDir},
	}
	// runnable lists every ID the chosen backend can run; with say set it
	// names the ones it cannot, and why.
	runnable := func(say bool) []string {
		var ids []string
		for _, id := range experiments.IDs() {
			if err := experiments.Supported(id, opts); err == nil {
				ids = append(ids, id)
			} else if say {
				fmt.Printf("skipping %v\n", err)
			}
		}
		return ids
	}
	if *list {
		for _, id := range runnable(false) {
			fmt.Println(id)
		}
		return
	}
	if *fig == "" {
		fmt.Fprintln(os.Stderr, "draid-bench: pass -fig <id>[,<id>...] or -list")
		os.Exit(2)
	}
	ids := strings.Split(*fig, ",")
	if *fig == "all" {
		ids = runnable(true)
	}
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
	}
	reports, err := experiments.RunAll(ids, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "draid-bench: %v\n", err)
		os.Exit(1)
	}
	for _, r := range reports {
		fmt.Println(r.Text)
		fmt.Printf("  (%s regenerated in %.1fs wall clock)\n\n", r.ID, r.Elapsed.Seconds())
	}
}
