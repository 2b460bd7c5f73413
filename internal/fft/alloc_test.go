package fft

import (
	"math/rand"
	"testing"
)

// TestRFFTRoundTripAllocFree pins the //kshape:hotpath transform kernels
// at zero allocations: with the plan built and the spectrum/work buffers
// preallocated, Forward and CrossCorrelate against an all-ones spectrum
// (and transformHalf and conj inside them) must never touch the heap —
// that is what lets the batch SBD loops stream thousands of transforms
// through one buffer set.
func TestRFFTRoundTripAllocFree(t *testing.T) {
	const n = 256
	p := NewRFFT(n)
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	spec := make([]complex128, p.SpectrumLen())
	ones := onesSpectrum(p)
	work := make([]complex128, p.WorkLen())
	out := make([]float64, n)
	if a := testing.AllocsPerRun(100, func() {
		p.Forward(x, spec, work)
		p.CrossCorrelate(spec, ones, out, work)
	}); a != 0 {
		t.Errorf("RFFT round trip allocates %v per run, want 0", a)
	}
}

// TestRFFTCrossCorrelateAllocFree pins the per-pair SBD kernel at zero
// allocations: CrossCorrelate of two prepared half-spectra, at both
// parities of the butterfly stage count (log₂(n/2) odd at n = 256, even
// at n = 512).
func TestRFFTCrossCorrelateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{256, 512} {
		p := NewRFFT(n)
		a, b := make([]complex128, p.SpectrumLen()), make([]complex128, p.SpectrumLen())
		work := make([]complex128, p.WorkLen())
		p.Forward(randSeries(rng, n/2), a, work)
		p.Forward(randSeries(rng, n/2), b, work)
		out := make([]float64, n)
		if allocs := testing.AllocsPerRun(100, func() {
			p.CrossCorrelate(a, b, out, work)
		}); allocs != 0 {
			t.Errorf("n=%d: CrossCorrelate allocates %v per run, want 0", n, allocs)
		}
	}
}
