package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample must read 0")
	}
	if tailSupported(999, 0.99) || !tailSupported(1000, 0.99) || tailSupported(9999, 0.999) || !tailSupported(10000, 0.999) {
		t.Error("a tail percentile needs exactly ten samples beyond it")
	}
}

func TestSliceRatesMedianOfSlices(t *testing.T) {
	// Cumulative bytes and seconds at six slice boundaries; the fourth slice
	// stalls. The median of the slice rates ignores the stall, the overall
	// mean would not.
	bytes := []float64{0, 100, 200, 300, 310, 410}
	at := []float64{0, 1, 2, 3, 4, 5}
	rates := sliceRates(bytes, at)
	if len(rates) != 5 || median(rates) != 100 {
		t.Errorf("slice rates %v, median %v; want five rates with median 100", rates, median(rates))
	}
	// A slice whose denominator did not advance is dropped, not divided by.
	if got := sliceRates([]float64{0, 5, 9}, []float64{0, 0, 2}); len(got) != 1 || got[0] != 2 {
		t.Errorf("zero-width slice: got %v", got)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := iqrShare([]float64{1, 2, 4}), 3.0/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if iqrShare([]float64{7}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestSelfTime(t *testing.T) {
	span := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{110, 130}}, 80},
		{"disjoint children", []interval{{110, 130}, {150, 160}}, 70},
		{"nested children count once", []interval{{110, 150}, {120, 130}}, 60},
		{"overlapping children count their union", []interval{{110, 140}, {130, 160}}, 50},
		{"children are clipped to the span", []interval{{50, 120}, {190, 300}}, 70},
		{"child outside the span", []interval{{0, 50}, {250, 300}}, 100},
		{"child covering the span", []interval{{0, 300}}, 0},
		{"unordered input", []interval{{150, 160}, {110, 130}, {125, 155}}, 50},
	} {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "bw", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "virt", Exact: true}
	for _, c := range []struct {
		d            metricDef
		a, b, spread float64
		want         string
	}{
		{lower, 100, 105, 0, "same"},
		{lower, 100, 111, 0, "worse"},
		{lower, 100, 89, 0, "better"},
		{higher, 100, 89, 0, "worse"},
		{higher, 100, 111, 0, "better"},
		{lower, 100, 150, 0.2, "unresolved"},
		{exact, 1.5, 1.5, 0, "same"},
		{exact, 1.5, 1.5000001, 0, "differs"},
	} {
		if got := verdict(c.d, c.a, c.b, c.spread); got != c.want {
			t.Errorf("verdict(%s, %v -> %v, spread %v) = %s, want %s", c.d.Name, c.a, c.b, c.spread, got, c.want)
		}
	}
}
