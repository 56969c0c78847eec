// Command benchmark is the repository's datapath benchmark: six named
// workloads, wall-clock end-to-end metrics from an untraced pass, and
// per-layer metrics from a separate outside-in traced pass. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// options are the command line.
type options struct {
	workload          string
	seed              int64
	seconds, trace    int
	runs              int
	out, manifest     string
	compare, selfTest bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.IntVar(&o.runs, "runs", 1, "with -workload all or -selfcheck: runs per workload, seeds seed, seed+1, ...")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory for result and trace files")
	flag.StringVar(&o.manifest, "write-manifest", "", "write BENCHMARK.json to this path and exit")
	flag.BoolVar(&o.compare, "compare", false, "compare the two result files given as arguments")
	flag.BoolVar(&o.selfTest, "selfcheck", false, "run the whole set twice and compare the pair")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	switch {
	case o.manifest != "":
		return writeManifest(o.manifest)
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		a, err := readResultFile(args[0])
		if err != nil {
			return err
		}
		b, err := readResultFile(args[1])
		if err != nil {
			return err
		}
		return compareFiles(os.Stdout, a, b)
	case o.seconds < 1 || o.runs < 1 || o.trace < 0 || o.trace > 1:
		return fmt.Errorf("-seconds and -runs must be at least 1, -trace 0 or 1")
	case o.selfTest:
		return selfcheck(o.seed, o.seconds, o.runs, o.out)
	case o.workload == "all":
		return runAll(o.seed, o.seconds, o.trace, o.runs, o.out,
			filepath.Join(o.out, fmt.Sprintf("results-trace%d.json", o.trace)))
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runWorkload(w, o.seed, time.Duration(o.seconds)*time.Second, o.trace == 1, o.out)
	if err != nil {
		return err
	}
	file := resultFile{Env: currentEnvironment(o.seed, o.seconds), Trace: o.trace, Results: []*result{res}}
	if err := file.write(singleResultPath(o.out, w.name, o.trace)); err != nil {
		return err
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	if err := res.report(os.Stdout, defs); err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed verification", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// runWorkload makes one pass over one workload. The simulator has no layer
// boundary to decorate, so its traced pass is the same run plus the rungs.
func runWorkload(w workload, seed int64, d time.Duration, traced bool, out string) (*result, error) {
	switch {
	case w.sim:
		res, err := runSim(seed, d)
		if err == nil && traced {
			err = runRungs(res)
		}
		return res, err
	case traced:
		return runRTTraced(w, seed, d, out)
	}
	return runRT(w, seed, d)
}
