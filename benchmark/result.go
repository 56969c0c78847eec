package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// result is what one run of one workload measured. Metrics holds both sets;
// which of them a report shows depends on the pass (untraced: end to end,
// traced: per layer).
type result struct {
	Workload  string             `json:"workload"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	// Spread is set on a result merged from several runs: per metric the
	// distance between the runs' first and third quartile as a share of
	// their median.
	Spread map[string]float64 `json:"spread,omitempty"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, Metrics: map[string]float64{}, Samples: map[string]int{}}
}

// set records a metric with the number of samples it summarises.
func (r *result) set(name string, v float64, samples int) {
	r.Metrics[name] = v
	r.Samples[name] = samples
}

// metricValue is one metric on the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the one-line JSON object the driver reads: exactly these
// keys.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric of defs by name with unit, sample count and
// regression bound (end to end) or source and the end-to-end metric it is
// expected to move (per layer), then the driver's result line
// as the last line. A metric the run did not produce reads 0: its layer did
// no work on this workload.
func (r *result) report(w io.Writer, defs []metricDef) error {
	line := driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d\n", r.Workload, r.Attempted, r.Failed)
	for _, d := range defs {
		v := r.Metrics[d.Name]
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		note := fmt.Sprintf("bound %.0f%%", d.Bound*100)
		if d.Bound == 0 {
			note = fmt.Sprintf("source %s, moves %s", d.Source, d.Moves)
		}
		fmt.Fprintf(w, "  %-46s %14.4f %-8s n=%-7d %s is better, %s\n", d.Name, v, d.Unit, r.Samples[d.Name], d.Better, note)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
