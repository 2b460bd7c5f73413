package ts

import "fmt"

// PAA computes the Piecewise Aggregate Approximation of x with the given
// number of segments: the series is partitioned into equal-width (possibly
// fractional) windows and each window is replaced by its mean. The paper
// (Section 3.3) recommends this kind of dimensionality reduction when the
// series length m approaches the collection size n, since k-Shape's
// per-iteration cost is dominated by m.
//
// Fractional boundaries are handled by weighting the straddling samples, so
// any 1 <= segments <= len(x) is valid and PAA(x, len(x)) == x.
func PAA(x []float64, segments int) []float64 {
	m := len(x)
	if segments < 1 || segments > m {
		panic(fmt.Sprintf("ts: PAA segments %d out of [1, %d]", segments, m))
	}
	if segments == m {
		out := make([]float64, m)
		copy(out, x)
		return out
	}
	out := make([]float64, segments)
	width := float64(m) / float64(segments)
	for s := 0; s < segments; s++ {
		lo := float64(s) * width
		hi := lo + width
		sum := 0.0
		// Integrate x as a step function over [lo, hi).
		for i := int(lo); i < m && float64(i) < hi; i++ {
			a := max(lo, float64(i))
			b := min(hi, float64(i+1))
			if b > a {
				sum += x[i] * (b - a)
			}
		}
		out[s] = sum / width
	}
	return out
}
