package dist

import (
	"fmt"

	"kshape/internal/fft"
	"kshape/internal/obs"
	"kshape/internal/ts"
)

// NCCNorm selects one of the cross-correlation normalizations of Equation 8.
type NCCNorm int

const (
	// NCCb is the biased estimator: CC_w / m.
	NCCb NCCNorm = iota
	// NCCu is the unbiased estimator: CC_w / (m - |w-m|).
	NCCu
	// NCCc is the coefficient normalization: CC_w / sqrt(R0(x,x)·R0(y,y)),
	// which bounds values in [-1, 1] and underlies SBD.
	NCCc
)

// String returns the paper's name for the normalization.
func (n NCCNorm) String() string {
	switch n {
	case NCCb:
		return "NCCb"
	case NCCu:
		return "NCCu"
	case NCCc:
		return "NCCc"
	}
	return fmt.Sprintf("NCCNorm(%d)", int(n))
}

// NCCSequence returns the full normalized cross-correlation sequence of
// length 2m-1 for equal-length series x and y under the given normalization
// (Equations 6-8). Index w (0-based) corresponds to shift s = w-(m-1).
func NCCSequence(x, y []float64, norm NCCNorm) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("dist: NCC length mismatch %d vs %d", len(x), len(y)))
	}
	m := len(x)
	if m == 0 {
		return nil
	}
	cc := fft.Plan(fft.NextPow2(2*m-1)).Correlate(x, y)
	switch norm {
	case NCCb:
		for i := range cc {
			cc[i] /= float64(m)
		}
	case NCCu:
		for i := range cc {
			lag := i - (m - 1)
			overlap := m - abs(lag)
			cc[i] /= float64(overlap)
		}
	case NCCc:
		den := nccDen(x, y)
		if degenerate(den) {
			clear(cc)
			return cc
		}
		for i := range cc {
			cc[i] /= den
		}
	default:
		panic(fmt.Sprintf("dist: unknown NCC normalization %d", int(norm)))
	}
	return cc
}

// MaxNCC returns the maximum of the normalized cross-correlation sequence
// and the shift s at which it occurs (positive s means y must move right to
// align with x, per Equation 5 / Algorithm 1).
func MaxNCC(x, y []float64, norm NCCNorm) (value float64, shift int) {
	value, i := laneMax(NCCSequence(x, y, norm))
	return value, max(i, 0) - (len(x) - 1)
}

// SBD computes the shape-based distance of Equation 9:
//
//	SBD(x, y) = 1 - max_w NCCc(x, y)
//
// in [0, 2], with 0 meaning identical shape up to scaling and shift, using
// the optimized FFT path with next-power-of-two padding (Algorithm 1).
// It also returns y aligned toward x (zero-padded shift), which the shape
// extraction step of k-Shape consumes.
func SBD(x, y []float64) (dist float64, aligned []float64) {
	return sbdImpl(x, y, sbdFFTPow2)
}

// SBDDist is SBD without materializing the aligned sequence.
func SBDDist(x, y []float64) float64 {
	d, _ := SBD(x, y)
	return d
}

type sbdVariant int

const (
	sbdFFTPow2   sbdVariant = iota // optimized: FFT, pad to next power of two
	sbdFFTNoPow2                   // FFT at twice the padded length (models the unpadded implementation row of Table 2)
	sbdNaive                       // direct O(m²) correlation
)

// nccDen returns the NCCc denominator ‖x‖·‖y‖. It multiplies the norms
// rather than taking the square root of the product of squared norms:
// Dot(x,x)·Dot(y,y) underflows to 0 for norms near 1e-100 even though both
// norms are representable, which would flip SBD(x,x) from 0 to the
// degenerate 1 (found by FuzzSBD, seed tiny-norm-underflow). Every SBD
// path, batch or per-pair, shares this denominator exactly.
func nccDen(x, y []float64) float64 { return ts.Norm(x) * ts.Norm(y) }

// degenerate reports whether den is a zero NCCc denominator — at least one
// series is identically zero (e.g. a z-normalized constant) or the norm
// product underflows. Every SBD and NCCc path applies the same convention
// there: NCCc is 0 at every shift, so SBD is 1 at shift 0.
func degenerate(den float64) bool {
	//lint:ignore floatcmp exact zero-norm guard before dividing by it
	return den == 0
}

// sbdImpl is the per-pair SBD of every Table 2 variant. The FFT variants
// run on the shared plan of their transform length (fft.Plan), so a one-
// shot pair costs two forward and one inverse real transform and yields
// exactly the batch engine's distance and shift. Empty series are at
// distance 0 from each other.
func sbdImpl(x, y []float64, variant sbdVariant) (float64, []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("dist: SBD length mismatch %d vs %d", len(x), len(y)))
	}
	obs.Inc(obs.CounterSBD)
	m := len(x)
	if m == 0 {
		return 0, nil
	}
	den := nccDen(x, y)
	if degenerate(den) {
		return 1, ts.Shift(y, 0)
	}
	var cc []float64
	switch variant {
	case sbdFFTPow2:
		cc = fft.Plan(fft.NextPow2(2*m-1)).Correlate(x, y)
	case sbdFFTNoPow2:
		// The paper's SBD_NoPow2 row measures the cost of not padding to the
		// next power of two after 2m-1. A radix-2 FFT still needs *some*
		// power-of-two length; the distinction the paper draws is between a
		// mixed-radix transform at exactly 2m-1 (slow for awkward sizes) and
		// a padded power-of-two transform. We model the penalty by running
		// the transform at double the padded length, which reproduces the
		// measured slowdown factor (~2x) without a second FFT codebase.
		cc = fft.Plan(2*fft.NextPow2(2*m-1)).Correlate(x, y)
	case sbdNaive:
		cc = fft.CrossCorrelateNaive(x, y)
	}
	d, shift := scanCC(cc[:m-1], cc[m-1:], den)
	return d, ts.Shift(y, shift)
}

// SBDNoPow2 computes SBD via FFT without the power-of-two padding
// optimization (Table 2's SBD_NoPow2 row).
func SBDNoPow2(x, y []float64) (float64, []float64) {
	return sbdImpl(x, y, sbdFFTNoPow2)
}

// SBDNoFFT computes SBD with the direct O(m²) cross-correlation
// (Table 2's SBD_NoFFT row).
func SBDNoFFT(x, y []float64) (float64, []float64) {
	return sbdImpl(x, y, sbdNaive)
}

// SBDMeasure is the Measure for the optimized shape-based distance.
type SBDMeasure struct{}

// Name implements Measure.
func (SBDMeasure) Name() string { return "SBD" }

// Distance implements Measure.
func (SBDMeasure) Distance(x, y []float64) float64 { return SBDDist(x, y) }

// SBDNoPow2Measure is the Measure for the un-padded FFT variant.
type SBDNoPow2Measure struct{}

// Name implements Measure.
func (SBDNoPow2Measure) Name() string { return "SBDNoPow2" }

// Distance implements Measure.
func (SBDNoPow2Measure) Distance(x, y []float64) float64 {
	d, _ := SBDNoPow2(x, y)
	return d
}

// SBDNoFFTMeasure is the Measure for the naive O(m²) variant.
type SBDNoFFTMeasure struct{}

// Name implements Measure.
func (SBDNoFFTMeasure) Name() string { return "SBDNoFFT" }

// Distance implements Measure.
func (SBDNoFFTMeasure) Distance(x, y []float64) float64 {
	d, _ := SBDNoFFT(x, y)
	return d
}

// NCCMeasure turns a raw normalized cross-correlation maximum into a
// dissimilarity (1 - max NCC), for the Appendix A comparison of NCCb and
// NCCu against SBD. Note that unlike NCCc, the b/u normalizations are not
// bounded by 1, so the resulting value can be negative; 1-NN classification
// only needs the ordering.
type NCCMeasure struct {
	Norm NCCNorm
}

// Name implements Measure.
func (m NCCMeasure) Name() string { return m.Norm.String() }

// Distance implements Measure.
func (m NCCMeasure) Distance(x, y []float64) float64 {
	v, _ := MaxNCC(x, y, m.Norm)
	return 1 - v
}
