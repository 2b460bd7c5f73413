package ts

import "fmt"

// Resample linearly interpolates x onto n uniformly spaced points. This is
// the preprocessing for the paper's *uniform scaling invariance*
// (Section 2.2): sequences of different lengths are stretched or shrunk to
// a common length before a fixed-length distance measure is applied.
func Resample(x []float64, n int) []float64 {
	if n <= 0 {
		panic(fmt.Sprintf("ts: Resample to non-positive length %d", n))
	}
	if len(x) == 0 {
		return make([]float64, n)
	}
	out := make([]float64, n)
	if len(x) == 1 || n == 1 {
		for i := range out {
			out[i] = x[0]
		}
		return out
	}
	scale := float64(len(x)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		pos := float64(i) * scale
		lo := int(pos)
		if lo >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = x[lo]*(1-frac) + x[lo+1]*frac
	}
	return out
}

// Detrend removes the least-squares linear trend from x, returning the
// residuals. Useful before shape comparison when a global drift (e.g.
// inflation in the paper's currency example, Section 2.2) would otherwise
// dominate the z-normalized shape.
func Detrend(x []float64) []float64 {
	m := len(x)
	out := make([]float64, m)
	if m < 2 {
		copy(out, x)
		return out
	}
	// Least squares of x against t = 0..m-1.
	tMean := float64(m-1) / 2
	xMean := Mean(x)
	num, den := 0.0, 0.0
	for i, v := range x {
		dt := float64(i) - tMean
		num += dt * (v - xMean)
		den += dt * dt
	}
	slope := 0.0
	//lint:ignore floatcmp exact zero-denominator guard
	if den != 0 {
		slope = num / den
	}
	for i, v := range x {
		out[i] = v - (xMean + slope*(float64(i)-tMean))
	}
	return out
}

// MovingAverage smooths x with a centered window of the given odd width
// (edges use the available samples). Width 1 returns a copy.
func MovingAverage(x []float64, width int) []float64 {
	if width < 1 || width%2 == 0 {
		panic(fmt.Sprintf("ts: MovingAverage width %d must be odd and positive", width))
	}
	m := len(x)
	out := make([]float64, m)
	half := width / 2
	for i := 0; i < m; i++ {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi > m-1 {
			hi = m - 1
		}
		sum := 0.0
		for j := lo; j <= hi; j++ {
			sum += x[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}

// Difference returns the first difference x[i+1] - x[i] (length m-1),
// a standard stationarity transform.
func Difference(x []float64) []float64 {
	if len(x) < 2 {
		return nil
	}
	out := make([]float64, len(x)-1)
	for i := range out {
		out[i] = x[i+1] - x[i]
	}
	return out
}
