// Object-store comparison (paper §9.6, Figures 20-21): run YCSB workloads
// against the hash-based object store on dRAID vs the host-centric SPDK
// baseline, in normal and degraded states.
package main

import (
	"fmt"
	"os"
	"time"

	"draid/internal/experiments"
	"draid/internal/sim"
	"draid/internal/ycsb"
)

func run(sys experiments.System, wl ycsb.Workload, failed []int, o experiments.Options) experiments.AppResult {
	r, err := experiments.YCSB(experiments.ObjectStore, sys, wl, failed, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return r
}

func main() {
	o := experiments.Options{
		Ramp:    sim.Duration(20 * time.Millisecond),
		Measure: sim.Duration(80 * time.Millisecond),
	}
	fmt.Println("Object store on 8-wide RAID-5, 128 KB objects, uniform YCSB")
	fmt.Println()
	fmt.Printf("%-8s %-8s | %10s | %10s | ratio\n", "state", "workload", "SPDK", "dRAID")
	for _, state := range []struct {
		name   string
		failed []int
	}{{"normal", nil}, {"degraded", []int{0}}} {
		for _, wl := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadF} {
			spdk := run(experiments.SPDK, wl, state.failed, o)
			dr := run(experiments.DRAID, wl, state.failed, o)
			fmt.Printf("%-8s %-8s | %6.1f KIOPS | %6.1f KIOPS | %.2fx\n",
				state.name, wl.Name, spdk.KIOPS, dr.KIOPS, dr.KIOPS/spdk.KIOPS)
		}
	}
	fmt.Println()
	fmt.Println("dRAID's gains concentrate on write-heavy mixes (A, F) in normal state")
	fmt.Println("and extend to read-heavy mixes once reconstruction traffic appears.")
}
