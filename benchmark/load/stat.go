// Package load is the benchmark's load generation and latency
// arithmetic: closed-loop clients, an open-loop dispatcher on a seeded
// schedule, and the percentile rule the reports use. It knows nothing
// about the replication stack — an operation is a function.
package load

import "slices"

// Median returns the middle value of xs (mean of the middle pair for
// even lengths), or 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of sorted by the
// nearest-rank rule. sorted must be ascending and non-empty.
func Quantile(sorted []int64, q float64) int64 {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailCandidates are the percentiles a report may quote for the tail,
// highest first.
var tailCandidates = []float64{99.99, 99.9, 99, 95, 90, 75}

// TailPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it among n samples: a p99 quoted from 200
// samples rests on two of them, so the report quotes p95 instead. ok is
// false when even p75 has fewer than ten samples beyond it.
func TailPercentile(n int) (pct float64, ok bool) {
	for _, p := range tailCandidates {
		// Integer arithmetic in hundredths of a percent: 99.99 is not
		// exactly representable and n*(1-p) must not round across 10.
		beyond := n * (10000 - int(p*100+0.5)) / 10000
		if beyond >= 10 {
			return p, true
		}
	}
	return 0, false
}
