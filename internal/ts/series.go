// Package ts provides the basic time-series container and the normalization
// primitives that the rest of the library builds on: z-normalization,
// range normalization, optimal-scaling alignment, and integer shifting.
//
// All functions operate on []float64 slices; a Series couples such a slice
// with an integer class label so that labeled datasets (used for evaluating
// clustering quality) can be passed around as a single value.
package ts

import (
	"fmt"
	"math"
)

// Series is a single univariate time series together with its class label.
type Series struct {
	Values []float64
	Label  int
}

// NewLabeled returns a labeled series wrapping values. The slice is not copied.
func NewLabeled(values []float64, label int) Series {
	return Series{Values: values, Label: label}
}

// Len returns the number of observations in the series.
func (s Series) Len() int { return len(s.Values) }

// Mean returns the arithmetic mean of x. It returns 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// Std returns the population standard deviation of x (dividing by n, as in
// the paper's z-normalization). It returns 0 for slices shorter than 1.
func Std(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	mu := Mean(x)
	ss := 0.0
	for _, v := range x {
		d := v - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(x)))
}

// Norm returns the Euclidean (L2) norm of x.
func Norm(x []float64) float64 {
	ss := 0.0
	for _, v := range x {
		ss += v * v
	}
	return math.Sqrt(ss)
}

// Dot returns the inner product of x and y. It panics if lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("ts: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// degenerateStdRatio is the threshold below which a standard deviation is
// treated as zero relative to the mean's magnitude. A floating-point
// constant series can produce a non-zero Std purely from summation rounding
// (e.g. 127 copies of -1.7954023232620309 give Std ≈ 1.8e-15), and dividing
// by that noise would map a constant series to the constant 1 instead of
// the documented all-zeros. Rounding noise in the mean is bounded by about
// eps·m·|mu|, far below this threshold for any realistic series length,
// while genuinely low-variance data (sd/|mu| ≥ 1e-10, say) is unaffected.
const degenerateStdRatio = 1e-12

// zstats returns the mean and standard deviation used for z-normalization,
// flushing a rounding-noise-level deviation to exactly zero so degenerate
// (constant) series are detected robustly.
func zstats(x []float64) (mu, sd float64) {
	mu = Mean(x)
	sd = Std(x)
	if sd <= degenerateStdRatio*math.Abs(mu) {
		sd = 0
	}
	return mu, sd
}

// ZNormalize returns a new slice with mean 0 and standard deviation 1:
// x' = (x - mean(x)) / std(x). A constant (zero-variance) series is mapped
// to all zeros, which keeps downstream distance computations well defined.
func ZNormalize(x []float64) []float64 {
	out := make([]float64, len(x))
	mu, sd := zstats(x)
	//lint:ignore floatcmp exact zero-variance guard; constant series stay constant
	if sd == 0 {
		return out // all zeros
	}
	for i, v := range x {
		out[i] = (v - mu) / sd
	}
	return out
}

// ZNormalizeInPlace z-normalizes x in place and returns it.
func ZNormalizeInPlace(x []float64) []float64 {
	mu, sd := zstats(x)
	//lint:ignore floatcmp exact zero-variance guard; constant series stay constant
	if sd == 0 {
		for i := range x {
			x[i] = 0
		}
		return x
	}
	for i := range x {
		x[i] = (x[i] - mu) / sd
	}
	return x
}

// IsZNormalized reports whether x has mean ~0 and std ~1 (or is all zeros)
// within tol.
func IsZNormalized(x []float64, tol float64) bool {
	if len(x) == 0 {
		return true
	}
	mu := Mean(x)
	sd := Std(x)
	if math.Abs(mu) > tol {
		return false
	}
	return math.Abs(sd-1) <= tol || sd <= tol
}

// Normalize01 rescales x into [0, 1]: x' = (x - min) / (max - min).
// A constant series is mapped to all zeros. This is the
// "ValuesBetween0-1" normalization of the paper's Appendix A.
func Normalize01(x []float64) []float64 {
	out := make([]float64, len(x))
	if len(x) == 0 {
		return out
	}
	lo, hi := x[0], x[0]
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	//lint:ignore floatcmp exact degenerate-range guard before dividing by the span
	if hi == lo {
		return out
	}
	for i, v := range x {
		out[i] = (v - lo) / (hi - lo)
	}
	return out
}

// OptimalScale returns the least-squares scaling coefficient
// c = (x·y) / (y·y) that best matches c*y to x, as used by the
// "OptimalScaling" normalization of the paper's Appendix A.
// It returns 0 when y has zero energy.
func OptimalScale(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("ts: OptimalScale length mismatch %d vs %d", len(x), len(y)))
	}
	den := Dot(y, y)
	//lint:ignore floatcmp exact zero-denominator guard
	if den == 0 {
		return 0
	}
	return Dot(x, y) / den
}

// Scale returns a new slice c*y.
func Scale(y []float64, c float64) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = c * v
	}
	return out
}

// Shift returns y shifted by s positions, zero-padded, per Equation 5 of the
// paper: for s >= 0 the series moves right (s leading zeros); for s < 0 it
// moves left (|s| trailing zeros). The result has the same length as y.
func Shift(y []float64, s int) []float64 {
	m := len(y)
	out := make([]float64, m)
	if s >= m || -s >= m {
		return out // shifted entirely out of the window
	}
	if s >= 0 {
		copy(out[s:], y[:m-s])
	} else {
		copy(out, y[-s:])
	}
	return out
}

// ShiftInto is Shift writing into dst (length m), allocating nothing. dst
// may alias y: for s >= 0 the copy moves data right and the zero-fill
// follows it, for s < 0 the copy moves data left, so in both directions
// every source element is read before it is overwritten.
//
//kshape:hotpath
func ShiftInto(dst, y []float64, s int) {
	m := len(y)
	if len(dst) != m {
		panic("ts: ShiftInto length mismatch")
	}
	if s >= m || -s >= m {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if s >= 0 {
		copy(dst[s:], y[:m-s])
		for i := 0; i < s; i++ {
			dst[i] = 0
		}
	} else {
		copy(dst, y[-s:])
		for i := m + s; i < m; i++ {
			dst[i] = 0
		}
	}
}

// Reverse returns a new slice with the elements of x in reverse order.
func Reverse(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[len(x)-1-i] = v
	}
	return out
}

// Matrix is a dense n×m collection of equal-length rows, the layout used for
// cluster inputs ("an n-by-m matrix with z-normalized time series" in the
// paper's pseudocode).
type Matrix [][]float64

// NewMatrix allocates an n×m zero matrix backed by a single contiguous slice.
func NewMatrix(n, m int) Matrix {
	backing := make([]float64, n*m)
	rows := make(Matrix, n)
	for i := range rows {
		rows[i] = backing[i*m : (i+1)*m : (i+1)*m]
	}
	return rows
}

// Rows returns the values of labeled series as a Matrix (no copying).
func Rows(data []Series) Matrix {
	m := make(Matrix, len(data))
	for i, s := range data {
		m[i] = s.Values
	}
	return m
}

// Labels returns the labels of data as a slice.
func Labels(data []Series) []int {
	out := make([]int, len(data))
	for i, s := range data {
		out[i] = s.Label
	}
	return out
}
