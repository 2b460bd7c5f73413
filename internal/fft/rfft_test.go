package fft

import (
	"math"
	"math/rand"
	"testing"
)

// rfftLengths covers the degenerate plans (1, 2) through sizes large
// enough to exercise several butterfly stages.
var rfftLengths = []int{1, 2, 4, 8, 16, 64, 256}

// TestRFFTMatchesComplexForward checks freshly built plans against the
// direct complex DFT of the zero-padded input, bin by bin.
func TestRFFTMatchesComplexForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range rfftLengths {
		p := NewRFFT(n)
		if p.Len() != n || p.SpectrumLen() != n/2+1 || p.WorkLen() != n/2 {
			t.Fatalf("n=%d: plan geometry %d/%d/%d", n, p.Len(), p.SpectrumLen(), p.WorkLen())
		}
		// Both a full-length input and a shorter zero-padded one.
		for _, inLen := range []int{n, (n + 1) / 2} {
			x := randSeries(rng, inLen)
			spec := make([]complex128, p.SpectrumLen())
			work := make([]complex128, p.WorkLen())
			p.Forward(x, spec, work)
			want := realDFT(x, n)
			for k := range spec {
				if d := cabs(spec[k] - want[k]); d > 1e-9*(1+cabs(want[k])) {
					t.Fatalf("n=%d inLen=%d bin %d: rfft %v vs direct DFT %v", n, inLen, k, spec[k], want[k])
				}
			}
		}
	}
}

func TestRFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range rfftLengths {
		p := NewRFFT(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 100
		}
		spec := make([]complex128, p.SpectrumLen())
		work := make([]complex128, p.WorkLen())
		out := make([]float64, n)
		p.Forward(x, spec, work)
		p.CrossCorrelate(spec, onesSpectrum(p), out, work)
		for i := range x {
			if math.Abs(out[i]-x[i]) > 1e-9*(1+math.Abs(x[i])) {
				t.Fatalf("n=%d: round trip diverges at %d: %v vs %v", n, i, out[i], x[i])
			}
		}
	}
}

func TestRFFTPanicsOnBadLengths(t *testing.T) {
	for _, fn := range []func(){
		func() { NewRFFT(3) },
		func() { NewRFFT(0) },
		func() { NewRFFT(4).Forward(make([]float64, 5), make([]complex128, 3), make([]complex128, 2)) },
		func() { NewRFFT(4).Forward(make([]float64, 4), make([]complex128, 2), make([]complex128, 2)) },
		func() {
			NewRFFT(4).CrossCorrelate(make([]complex128, 2), make([]complex128, 3), make([]float64, 4), make([]complex128, 2))
		},
		func() {
			NewRFFT(4).CrossCorrelate(make([]complex128, 3), make([]complex128, 2), make([]float64, 4), make([]complex128, 2))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func cabs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }

// onesSpectrum returns the all-ones half-spectrum of p, against which
// CrossCorrelate is the plain inverse transform.
func onesSpectrum(p *RFFT) []complex128 {
	ones := make([]complex128, p.SpectrumLen())
	for k := range ones {
		ones[k] = 1
	}
	return ones
}
