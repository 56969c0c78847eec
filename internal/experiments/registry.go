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
	r := map[string]experiment{
		"table1": {nil, "the single-machine row offloads its controller onto its drives' server (OffloadController, DrivesPerServer), both simulation-only"},
		"fig17a": {run: fig17a},
		"fig17b": {fig17b, "NIC line rates and queue occupancy are simulation models"},
		// §9.6: the LSM KV store (RocksDB stand-in) on BlobFS and the object
		// store on the block layer, YCSB A-F, normal state and degraded.
		"fig19a":         {run: appFigure("fig19a", "KV store (LSM on BlobFS) YCSB throughput, normal state", KVStore, nil)},
		"fig19b":         {run: appFigure("fig19b", "KV store (LSM on BlobFS) YCSB throughput, degraded state", KVStore, []int{0})},
		"fig20":          {run: appFigure("fig20", "Object store YCSB throughput, normal state", ObjectStore, nil)},
		"fig21":          {run: appFigure("fig21", "Object store YCSB throughput, degraded state", ObjectStore, []int{0})},
		"decluster":      {run: decluster},
		"greyfail":       {run: greyfail},
		"multivol-noisy": {run: multivolNoisy},
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
		fig.Notes = append(fig.Notes, "realtime backend: wall-clock numbers from this machine — compare shapes, not magnitudes")
	}
	return fig, nil
}
