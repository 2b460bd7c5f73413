// Fuzz targets for the FFT layer, in an external test package so they can
// use the shared testkit decode helpers and tolerance conventions.
package fft_test

import (
	"math"
	"testing"

	"kshape/internal/fft"
	"kshape/internal/testkit"
)

// FuzzFFTRoundTrip drives the shared per-length plans (fft.Plan): the
// round trip of the input at its padded length through Forward and
// CrossCorrelate against an all-ones spectrum (the plain inverse), and
// RFFT.Correlate of the input's two halves against the direct O(m²)
// correlation — the arithmetic of every per-pair SBD.
func FuzzFFTRoundTrip(f *testing.F) {
	f.Add(testkit.EncodeFloats([]float64{1, 0, -1, 0, 1, 0, -1, 0}))
	f.Add(testkit.EncodeFloats([]float64{5}))
	f.Add(testkit.EncodeFloats(make([]float64, 16)))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := testkit.DecodeFloats(data, 256)
		if len(vals) == 0 {
			return
		}
		// Round trip: the error of both transforms is O(log n · eps)
		// relative to the input energy, so the elementwise slack scales
		// with the largest magnitude.
		n := fft.NextPow2(len(vals))
		p := fft.Plan(n)
		spec := make([]complex128, p.SpectrumLen())
		work := make([]complex128, p.WorkLen())
		out := make([]float64, n)
		p.Forward(vals, spec, work)
		p.CrossCorrelate(spec, fft.OnesSpectrum(p), out, work)
		slack := 1e-9 * (1 + maxAbs(vals))
		for i := 0; i < n; i++ {
			want := 0.0
			if i < len(vals) {
				want = vals[i]
			}
			if math.Abs(out[i]-want) > slack {
				t.Fatalf("roundtrip n=%d index %d: got %v, want %v (slack %v)", n, i, out[i], want, slack)
			}
		}
		// Differential: the FFT cross-correlation of the two halves matches
		// the direct O(m²) definition. Cancellation can leave small outputs
		// assembled from large products, so the slack scales with the norm
		// product rather than with the output value.
		m := len(vals) / 2
		if m == 0 {
			return
		}
		x, y := vals[:m], vals[m:2*m]
		got := fft.Plan(fft.NextPow2(2*m-1)).Correlate(x, y)
		want := fft.CrossCorrelateNaive(x, y)
		if len(got) != len(want) {
			t.Fatalf("Correlate length %d vs naive %d", len(got), len(want))
		}
		ccSlack := 1e-12 * (1 + norm(x)*norm(y))
		for i := range got {
			if math.Abs(got[i]-want[i]) > ccSlack {
				t.Fatalf("Correlate[%d] = %v vs naive %v (m=%d, slack %v)", i, got[i], want[i], m, ccSlack)
			}
		}
	})
}

// FuzzRFFT drives the real-input plan across arbitrary inputs and both
// padding regimes (tight and doubled), checking parity with the direct
// O(n²) DFT bin by bin and the round trip through Forward and
// CrossCorrelate against an all-ones spectrum. The input length itself is
// unrestricted — odd, prime, and power-of-two lengths all land here via
// zero-padding, exactly as the SBD hot path pads 2m-1 up to a power of two.
func FuzzRFFT(f *testing.F) {
	f.Add(testkit.EncodeFloats([]float64{1, 0, -1, 0, 1, 0, -1, 0}))
	f.Add(testkit.EncodeFloats([]float64{5}))
	f.Add(testkit.EncodeFloats(make([]float64, 13)))
	f.Add([]byte{7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := testkit.DecodeFloats(data, 512)
		if len(vals) == 0 {
			return
		}
		tight := fft.NextPow2(len(vals))
		for _, n := range []int{tight, 2 * tight} {
			p := fft.NewRFFT(n)
			spec := make([]complex128, p.SpectrumLen())
			work := make([]complex128, p.WorkLen())
			p.Forward(vals, spec, work)
			// Parity with the direct DFT. The transform accumulates
			// O(log n · eps) rounding relative to the input energy, so the
			// slack scales with the l2 norm.
			ref := fft.RealDFT(vals, n)
			slack := 1e-9 * (1 + norm(vals)*math.Sqrt(float64(n)))
			for k := range spec {
				if math.Abs(real(spec[k])-real(ref[k])) > slack || math.Abs(imag(spec[k])-imag(ref[k])) > slack {
					t.Fatalf("n=%d bin %d: rfft %v vs direct DFT %v (slack %v)", n, k, spec[k], ref[k], slack)
				}
			}
			// Round trip reproduces the zero-padded input.
			out := make([]float64, n)
			p.CrossCorrelate(spec, fft.OnesSpectrum(p), out, work)
			rtSlack := 1e-9 * (1 + maxAbs(vals))
			for i := 0; i < n; i++ {
				want := 0.0
				if i < len(vals) {
					want = vals[i]
				}
				if math.Abs(out[i]-want) > rtSlack {
					t.Fatalf("rfft roundtrip n=%d index %d: got %v, want %v (slack %v)", n, i, out[i], want, rtSlack)
				}
			}
		}
	})
}

// FuzzRFFTBitIdentical checks Forward and CrossCorrelate bit for bit
// against the reference division kernel of rfft_oracle_test.go, on inputs
// taken past DecodeFloats' range by an exact power of two: the first half
// of the decoded values (x) is scaled by 2^e and the rest (y) by 2^-e, with
// e = scale mod 601 in [-600, 600]. That reaches magnitudes from about
// 1e-281 to 1e187, far below the decoder's 1e-100 floor and above its 1e6
// cap, yet keeps the transforms' intermediates clear of the subnormal
// range, the one place besides a zero's sign where the kernels may part
// (TestRFFTDivisionKernelExceptions).
func FuzzRFFTBitIdentical(f *testing.F) {
	f.Add(int16(-600), testkit.EncodeFloats([]float64{1, 0.5, -1, 2, 0.25, -3}))
	f.Fuzz(func(t *testing.T, scale int16, data []byte) {
		vals := testkit.DecodeFloats(data, 512)
		if len(vals) == 0 {
			return
		}
		e := int(scale) % 601
		mx := (len(vals) + 1) / 2
		x, y := vals[:mx], vals[mx:]
		for i := range x {
			x[i] = math.Ldexp(x[i], e)
		}
		for i := range y {
			y[i] = math.Ldexp(y[i], -e)
		}
		p := fft.NewRFFT(fft.NextPow2(len(vals)))
		if d := fft.KernelBitDiffs(p, x, y); d != 0 {
			t.Fatalf("n=%d len(x)=%d len(y)=%d e=%d: %d outputs differ from the reference kernel in their bits", p.Len(), len(x), len(y), e, d)
		}
	})
}

func norm(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func maxAbs(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		m = math.Max(m, math.Abs(v))
	}
	return m
}
