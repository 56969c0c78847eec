package main

import "sort"

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// iqrShare is the distance between the first and third quartile of xs as a
// share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the driver's measure of spread). It
// is 0 for fewer than two values or a zero median.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	iqr := (quartile(3) - quartile(1)) / med
	if iqr < 0 {
		return -iqr
	}
	return iqr
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of an
// ascending-sorted sample, or 0 when it is empty.
func percentile(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(q*float64(n)+0.9999999) - 1 // ceil(q·n) − 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return float64(sorted[rank])
}

// tailSupported reports whether at least ten samples lie beyond the
// q-quantile, the rule the benchmark uses to decide whether a tail
// percentile is worth printing.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// sliceRates turns cumulative (numerator, denominator) snapshots taken at
// slice boundaries into one rate per slice. A slice whose denominator did
// not advance is skipped.
func sliceRates(num, den []float64) []float64 {
	var out []float64
	for i := 1; i < len(num) && i < len(den); i++ {
		if d := den[i] - den[i-1]; d > 0 {
			out = append(out, (num[i]-num[i-1])/d)
		}
	}
	return out
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the span, and overlapping or nested children are
// counted once.
func selfTime(span interval, children []interval) int64 {
	total := span.end - span.start
	if total <= 0 {
		return 0
	}
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < span.start {
			c.start = span.start
		}
		if c.end > span.end {
			c.end = span.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, reach int64
	reach = span.start
	for _, c := range clipped {
		if c.end <= reach {
			continue
		}
		if c.start > reach {
			reach = c.start
		}
		covered += c.end - reach
		reach = c.end
	}
	return total - covered
}
