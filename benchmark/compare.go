package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultFile is what a run leaves on disk: the environment it ran in, which
// pass it was, and one result per workload.
type resultFile struct {
	Env     environment `json:"environment"`
	Trace   int         `json:"trace"`
	Results []*result   `json:"results"`
}

func (f *resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultFile) find(workload string) *result {
	for _, r := range f.Results {
		if r.Workload == workload {
			return r
		}
	}
	return nil
}

func singleResultPath(out, workload string, trace int) string {
	return filepath.Join(out, fmt.Sprintf("result-%s-trace%d.json", workload, trace))
}

// runAll runs every workload `runs` times (seeds seed, seed+1, ...), each run
// in a child process of its own so that peak RSS, heap and GC state are per
// workload, and gathers the children's result files into dst: per metric the
// median over the runs and their spread. A child that fails verification
// fails the set.
func runAll(seed int64, seconds, trace, runs int, out, dst string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := resultFile{Env: currentEnvironment(seed, seconds), Trace: trace}
	var failed error
	for _, w := range workloads {
		var each []*result
		for r := 0; r < runs; r++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(r), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = fmt.Errorf("workload %s: %w", w.name, err)
			}
			one, err := readResultFile(singleResultPath(out, w.name, trace))
			if err != nil {
				return err
			}
			each = append(each, one.Results...)
		}
		all.Results = append(all.Results, mergeRuns(each))
	}
	if err := all.write(dst); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", dst)
	return failed
}

// verdict classifies b against a for one metric. A change inside the bound
// either way is "same"; with a spread wider than the bound nothing can be
// said and the pair is "unresolved".
func verdict(d metricDef, a, b, spread float64) string {
	if d.Exact {
		if a != b {
			return "differs"
		}
		return "same"
	}
	if d.Bound == 0 || a == 0 {
		return "-"
	}
	change := (b - a) / a // positive = b larger
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case spread > d.Bound:
		return "unresolved"
	case change > d.Bound:
		return "worse"
	case change < -d.Bound:
		return "better"
	}
	return "same"
}

// compareFiles prints, per workload × metric, both values, the ratio with
// its base, and the verdict against the bound; the spread is the wider of
// the two files' run-to-run spreads (0 for single-run files). It returns an
// error if any metric is worse, any exact metric differs, or more ops failed.
func compareFiles(w io.Writer, a, b *resultFile) error {
	defs := endToEnd
	if a.Trace == 1 {
		defs = perLayer
	}
	if a.Trace != b.Trace {
		return fmt.Errorf("cannot compare a trace=%d file with a trace=%d file", a.Trace, b.Trace)
	}
	if a.Env.Seed != b.Env.Seed {
		fmt.Fprintf(w, "note: seeds differ (%d vs %d): exact metrics are not expected to match\n", a.Env.Seed, b.Env.Seed)
	}
	bad := 0
	for _, ra := range a.Results {
		rb := b.find(ra.Workload)
		if rb == nil {
			continue
		}
		fmt.Fprintf(w, "%s: failed %d/%d -> %d/%d\n", ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		if float64(rb.Failed)*float64(ra.Attempted) > float64(ra.Failed)*float64(rb.Attempted) {
			fmt.Fprintf(w, "  failed ops share rose\n")
			bad++
		}
		for _, d := range append(append([]metricDef(nil), defs...), exactOf(a.Trace)...) {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			if va == 0 && vb == 0 {
				continue
			}
			if d.Exact && a.Env.Seed != b.Env.Seed {
				d.Exact = false
			}
			spread := max(ra.Spread[d.Name], rb.Spread[d.Name])
			v := verdict(d, va, vb, spread)
			if v == "worse" || v == "differs" {
				bad++
			}
			ratio, mark := 0.0, ""
			if va != 0 {
				ratio = vb / va
				if d.Bound > 0 && math.Abs(ratio-1) > d.Bound/3 {
					mark = " *"
				}
			}
			fmt.Fprintf(w, "  %-46s %14.4f -> %14.4f %-8s x%.4f of %.4f  spread %5.1f%% bound %4.0f%%  %s%s\n",
				d.Name, va, vb, d.Unit, ratio, va, spread*100, d.Bound*100, v, mark)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons are worse", bad)
	}
	return nil
}

// exactOf returns the metrics that must be bit-identical between two runs of
// one seed and are not already in the pass's own table: the simulator's
// virtual results ride along in the untraced result file.
func exactOf(trace int) []metricDef {
	if trace == 1 {
		return nil
	}
	var out []metricDef
	for _, d := range perLayer {
		if d.Exact {
			out = append(out, d)
		}
	}
	return out
}

// selfcheck runs the whole set twice on the same tree and compares the pair:
// every difference it prints is this machine's noise, so a bound tighter
// than that noise shows up here, not in the first change judged by it.
func selfcheck(seed int64, seconds, runs int, out string) error {
	var files []*resultFile
	for _, name := range []string{"selfcheck-a.json", "selfcheck-b.json"} {
		path := filepath.Join(out, name)
		if err := runAll(seed, seconds, 0, runs, out, path); err != nil {
			return err
		}
		f, err := readResultFile(path)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	fmt.Println("same tree twice; * marks a difference wider than a third of the metric's bound")
	return compareFiles(os.Stdout, files[0], files[1])
}

// mergeRuns folds several runs of one workload into one result: per metric
// the median and the runs' spread, attempted and failed summed.
func mergeRuns(runs []*result) *result {
	if len(runs) == 1 {
		return runs[0]
	}
	m := newResult(runs[0].Workload)
	m.Spread = map[string]float64{}
	for name := range runs[0].Metrics {
		var vs []float64
		for _, r := range runs {
			vs = append(vs, r.Metrics[name])
		}
		m.set(name, median(vs), len(vs))
		m.Spread[name] = iqrShare(vs)
	}
	for _, r := range runs {
		m.Attempted += r.Attempted
		m.Failed += r.Failed
	}
	return m
}
