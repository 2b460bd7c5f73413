package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a tail percentile
// before the benchmark reports it as measured.
const minTail = 10

// Percentile returns the p-quantile (p in [0, 1]) of xs by linear
// interpolation between closest ranks: p=0 is the minimum, p=1 the maximum,
// and the median of an even-length sample is the mean of the middle pair.
// An empty sample or a NaN p yields NaN; p outside [0, 1] is clamped. xs is
// not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p = math.Max(0, math.Min(1, p))
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Median is Percentile(xs, 0.5).
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// TailSupported reports whether n samples put at least minTail of them
// beyond the p-quantile's rank: the condition under which a p90 is a
// measurement rather than a restatement of the sample maximum.
func TailSupported(n int, p float64) bool {
	if n <= 0 || math.IsNaN(p) {
		return false
	}
	// The slack keeps 0.9·100 from rounding up past 90.
	return n-int(math.Ceil(p*float64(n)-1e-9)) >= minTail
}

// Mean returns the arithmetic mean of xs, NaN when xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
