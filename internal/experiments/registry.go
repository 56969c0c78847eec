package experiments

import (
	"fmt"
	"sort"

	"draid"
)

// experiment is one registered figure: how to run it, and — for the ones
// that reach into simulation internals — why it cannot run on the realtime
// backend.
type experiment struct {
	run     func(Options) (Figure, error)
	simOnly string
}

// registry maps experiment IDs to runners: every row of sweeps, plus the
// figures that are not an fio grid. table1 is registered for its ID and
// backend needs only: it is not a Figure, so it has no runner and Run
// renders it itself.
var registry = func() map[string]experiment {
	const (
		apps    = "the YCSB application stacks run on the simulation engine"
		rebuild = "reconstruction against the SPDK baseline and simulated NIC rates"
	)
	r := map[string]experiment{
		"table1":         {nil, "host-NIC overheads are read off the simulated fabric, and two of three rows are baselines"},
		"fig17a":         {fig17a, rebuild},
		"fig17b":         {fig17b, rebuild},
		"fig19a":         {func(o Options) (Figure, error) { return fig19(o, nil) }, apps},
		"fig19b":         {func(o Options) (Figure, error) { return fig19(o, []int{0}) }, apps},
		"fig20":          {fig20, apps},
		"fig21":          {fig21, apps},
		"decluster":      {run: decluster},
		"greyfail":       {run: greyfail},
		"multivol-noisy": {multivolNoisy, "two volumes share one simulated cluster and its QoS scheduler"},
		"writeback":      {run: writeback},
	}
	for _, sw := range sweeps {
		r[sw.id] = experiment{sw.run, sw.needsSim()}
	}
	return r
}()

// IDs returns all experiment IDs in sorted order ("table1" first).
func IDs() []string {
	out := []string{"table1"}
	for id := range registry {
		if id != "table1" {
			out = append(out, id)
		}
	}
	sort.Strings(out[1:])
	return out
}

// Supported reports whether experiment id can run on the backend o names:
// nil, an error for an unknown ID, or — for an ID that needs simulation
// internals, asked to run on the realtime backend — the reason wrapped
// around draid.ErrUnsupported. Run, RunFigure and RunAll check it before
// they build anything.
func Supported(id string, o Options) error {
	e, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
	}
	if o.realtime() && e.simOnly != "" {
		return fmt.Errorf("experiments: %s is simulation-only (%s): %w", id, e.simOnly, draid.ErrUnsupported)
	}
	return nil
}

// Run executes one experiment by ID and returns its printable report.
func Run(id string, o Options) (string, error) {
	if id == "table1" {
		if err := Supported(id, o); err != nil {
			return "", err
		}
		return FormatTable1(Table1(o)), nil
	}
	fig, err := RunFigure(id, o)
	if err != nil {
		return "", err
	}
	return fig.String(), nil
}

// RunFigure executes one figure by ID (not table1) on the backend o names
// and returns the data.
func RunFigure(id string, o Options) (Figure, error) {
	if err := Supported(id, o); err != nil {
		return Figure{}, err
	}
	run := registry[id].run
	if run == nil {
		return Figure{}, fmt.Errorf("experiments: %s is not a figure", id)
	}
	fig, err := run(o.withDefaults())
	if err != nil {
		return Figure{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	if o.realtime() {
		fig.Title += " [realtime backend]"
		fig.Notes = append(fig.Notes, "realtime backend: wall-clock numbers from this machine, dRAID only — compare shapes, not magnitudes")
	}
	return fig, nil
}
