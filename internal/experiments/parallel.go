package experiments

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Parallel execution of experiment grids.
//
// Every measurement point runs against its own freshly built sim.Engine and
// cluster, and no package in the simulation stack keeps mutable global state,
// so points are independent and can run on separate goroutines. Virtual-time
// results depend only on (Setup, Options), never on wall-clock interleaving:
// results are collected into their input-order slots, so output is
// byte-identical to serial execution for any worker count.

// parMap evaluates fn(0..n-1) with at most par concurrent calls and returns
// the results in input order. par ≤ 1 degrades to a plain loop.
func parMap[T any](par, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if par <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		sem <- struct{}{} // bounds live goroutines, not just running ones
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			out[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return out
}

// runGrid evaluates a series × point measurement grid — the shape of every
// figure sweep — flattened into one parMap so a slow series cannot idle the
// workers, then reassembles the series in declaration order. A point that
// fails fails the grid.
func runGrid(o Options, names []string, points int, eval func(series, point int) (Point, error)) ([]Series, error) {
	errs := make([]error, len(names)*points)
	flat := parMap(o.parallel(), len(errs), func(i int) Point {
		p, err := eval(i/points, i%points)
		if err != nil {
			errs[i] = fmt.Errorf("%s, point %d: %w", names[i/points], i%points, err)
		}
		return p
	})
	out := make([]Series, len(names))
	for si, name := range names {
		out[si] = Series{System: name, Points: flat[si*points : (si+1)*points : (si+1)*points]}
	}
	return out, errors.Join(errs...)
}

// systemNames converts a system list to series names.
func systemNames(systems []System) []string {
	out := make([]string, len(systems))
	for i, s := range systems {
		out[i] = string(s)
	}
	return out
}

// Report is one experiment's rendered output.
type Report struct {
	ID      string
	Text    string
	Elapsed time.Duration // wall clock spent generating this report
}

// RunAll executes the given experiment IDs (figure IDs or "table1") and
// returns their printable reports in input order. IDs that are unknown, or
// that the backend o names cannot run, are rejected up front, before any
// experiment runs. With o.Parallel > 1 and several IDs,
// whole experiments run concurrently, each internally serial, so at most
// o.Parallel simulations are in flight either way; a single ID keeps its
// inner point-level parallelism. On failure the first error by input order
// is returned.
func RunAll(ids []string, o Options) ([]Report, error) {
	for _, id := range ids {
		if err := Supported(id, o); err != nil {
			return nil, err
		}
	}
	inner := o
	if len(ids) > 1 {
		inner.Parallel = 1
	}
	type result struct {
		report Report
		err    error
	}
	results := parMap(o.parallel(), len(ids), func(i int) result {
		start := time.Now()
		text, err := Run(ids[i], inner)
		return result{Report{ID: ids[i], Text: text, Elapsed: time.Since(start)}, err}
	})
	out := make([]Report, len(ids))
	for i, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out[i] = r.report
	}
	return out, nil
}
