package fft

import (
	"math"
	"math/rand"
	"testing"
)

// The reference kernel below is the real FFT as it stood before the
// untangle and re-tangle stopped dividing by 2: each (a ± b)/2 was a
// complex128 division (Smith's algorithm in the Go runtime), the inverse
// halved the spectrum before its butterflies and scaled by 1/(n/2), and
// the size-2 butterfly stage multiplied by its unit twiddle. It also runs
// the kernel's older layout: a separate product loop before the inverse, a
// bit-reversal swap pass, and one butterfly stage per sweep. It runs on
// the same plan tables, so any output difference comes from those edits.

func refTransformHalf(p *RFFT, x, tw []complex128) {
	h := p.half
	for i, j := range p.rev {
		if i < int(j) {
			x[i], x[int(j)] = x[int(j)], x[i]
		}
	}
	for size := 2; size <= h; size <<= 1 {
		hs := size >> 1
		stride := h / size
		for start := 0; start < h; start += size {
			ti := 0
			for k := 0; k < hs; k++ {
				a := x[start+k]
				b := x[start+k+hs] * tw[ti]
				x[start+k] = a + b
				x[start+k+hs] = a - b
				ti += stride
			}
		}
	}
}

func refForward(p *RFFT, x []float64, spec, work []complex128) {
	if p.n == 1 {
		v := 0.0
		if len(x) == 1 {
			v = x[0]
		}
		spec[0] = complex(v, 0)
		return
	}
	half := p.half
	for j := 0; j < half; j++ {
		re, im := 0.0, 0.0
		if 2*j < len(x) {
			re = x[2*j]
		}
		if 2*j+1 < len(x) {
			im = x[2*j+1]
		}
		work[j] = complex(re, im)
	}
	refTransformHalf(p, work[:half], p.twF)
	for k := 0; k <= half; k++ {
		zk := work[k%half]
		zc := conj(work[(half-k)%half])
		even := (zk + zc) / 2
		odd := (zk - zc) / 2
		odd = complex(imag(odd), -real(odd))
		spec[k] = even + p.tw[k]*odd
	}
}

func refInverse(p *RFFT, spec []complex128, out []float64, work []complex128) {
	if p.n == 1 {
		out[0] = real(spec[0])
		return
	}
	half := p.half
	for k := 0; k < half; k++ {
		xk := spec[k]
		xc := conj(spec[half-k])
		even := (xk + xc) / 2
		odd := (xk - xc) / 2
		odd *= conj(p.tw[k])
		work[k] = even + complex(-imag(odd), real(odd))
	}
	refTransformHalf(p, work[:half], p.twI)
	scale := 1 / float64(half)
	for j := 0; j < half; j++ {
		out[2*j] = real(work[j]) * scale
		out[2*j+1] = imag(work[j]) * scale
	}
}

// kernelRun holds one input's outputs from either kernel: the forward
// spectrum, its round trip (the correlation against an all-ones spectrum),
// and the circular correlation with a second input through the product
// spectrum X·conj(Y), as every SBD computes it.
type kernelRun struct {
	spec      []complex128
	roundTrip []float64
	cc        []float64
}

// runKernel runs x and y through the plan's Forward and CrossCorrelate, or
// with ref through the reference kernel, which forms the product spectrum
// in a loop of its own and then inverts it.
func runKernel(p *RFFT, x, y []float64, ref bool) kernelRun {
	forward, correlate := p.Forward, p.CrossCorrelate
	if ref {
		forward = func(x []float64, spec, work []complex128) { refForward(p, x, spec, work) }
		correlate = func(a, b []complex128, out []float64, work []complex128) {
			prod := make([]complex128, len(a))
			for k := range prod {
				prod[k] = a[k] * conj(b[k])
			}
			refInverse(p, prod, out, work)
		}
	}
	work := make([]complex128, p.WorkLen())
	r := kernelRun{
		spec:      make([]complex128, p.SpectrumLen()),
		roundTrip: make([]float64, p.n),
		cc:        make([]float64, p.n),
	}
	forward(x, r.spec, work)
	correlate(r.spec, onesSpectrum(p), r.roundTrip, work)
	sy := make([]complex128, p.SpectrumLen())
	forward(y, sy, work)
	correlate(r.spec, sy, r.cc, work)
	return r
}

// floats flattens a run into one slice for bitwise comparison.
func (r kernelRun) floats() []float64 {
	out := make([]float64, 0, 2*len(r.spec)+len(r.roundTrip)+len(r.cc))
	for _, z := range r.spec {
		out = append(out, real(z), imag(z))
	}
	out = append(out, r.roundTrip...)
	return append(out, r.cc...)
}

// bitDiffs counts the positions where the two runs differ in any bit.
func bitDiffs(got, want kernelRun) int {
	g, w := got.floats(), want.floats()
	n := 0
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			n++
		}
	}
	return n
}

// scaledSeries returns n standard-normal samples times 2^e, exactly.
func scaledSeries(rng *rand.Rand, n, e int) []float64 {
	x := randSeries(rng, n)
	for i := range x {
		x[i] = math.Ldexp(x[i], e)
	}
	return x
}

// TestRFFTBitIdenticalToDivisionKernel checks that the division-free
// kernel reproduces the reference kernel bit for bit: forward spectra,
// round trips and correlations, at every plan length up to 1024, for full
// and ragged (zero-padded) inputs, at exact power-of-two scales from 2^-900
// to 2^1000.
func TestRFFTBitIdenticalToDivisionKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for n := 1; n <= 1024; n <<= 1 {
		p := NewRFFT(n)
		for _, inLen := range []int{n, n - n/3, n/2 + 1} {
			if inLen < 1 {
				continue
			}
			for e := -900; e <= 1000; e += 100 {
				x := scaledSeries(rng, inLen, e)
				y := randSeries(rng, inLen)
				got, want := runKernel(p, x, y, false), runKernel(p, x, y, true)
				if d := bitDiffs(got, want); d != 0 {
					t.Errorf("n=%d len=%d scale 2^%d: %d outputs differ in their bits", n, inLen, e, d)
				}
			}
		}
	}
}

// TestRFFTDivisionKernelExceptions pins the two places where the kernels
// may part: the sign of a zero, and values whose intermediates are
// subnormal. Neither moves an SBD: −0 == +0 under the scan's strict >, and
// z-normalized series never come near the subnormal range.
func TestRFFTDivisionKernelExceptions(t *testing.T) {
	t.Run("signed zero", func(t *testing.T) {
		// Smith's division computes (re + im·0)/2, which turns −0 into +0;
		// the component-wise halving keeps the sign, as X_1 = x_0 − x_1 of
		// the padded input {−0, 0} does.
		negZero := math.Copysign(0, -1)
		p := NewRFFT(2)
		got, want := runKernel(p, []float64{negZero}, []float64{1}, false), runKernel(p, []float64{negZero}, []float64{1}, true)
		if g, w := real(got.spec[1]), real(want.spec[1]); !math.Signbit(g) || math.Signbit(w) {
			t.Errorf("bin 1 of {-0}: got %v (signbit %t), reference %v (signbit %t); want -0 and +0", g, math.Signbit(g), w, math.Signbit(w))
		}
		// Any other difference on all-(−0) input is a zero's sign alone.
		for n := 1; n <= 1024; n <<= 1 {
			x := make([]float64, n)
			for i := range x {
				x[i] = negZero
			}
			p := NewRFFT(n)
			g, w := runKernel(p, x, x, false).floats(), runKernel(p, x, x, true).floats()
			for i := range g {
				if g[i] != 0 || w[i] != 0 {
					t.Fatalf("n=%d output %d of all -0 input: %v vs reference %v, want zeros", n, i, g[i], w[i])
				}
			}
		}
	})
	t.Run("subnormal", func(t *testing.T) {
		// x at scale 2^-1000 against y at 2^-70: the product spectrum and
		// the correlation are subnormal and the exact correlation is
		// representable. The reference halved the spectrum before the
		// inverse butterflies and lost a bit there; the division-free
		// kernel rounds once, at the final 1/n, and lands on it exactly.
		x := []float64{math.Ldexp(4, -1000), math.Ldexp(4, -1000), math.Ldexp(-4, -1000)}
		y := []float64{math.Ldexp(2, -70), math.Ldexp(4, -70), math.Ldexp(-1, -70)}
		p := NewRFFT(NextPow2(len(x) + len(y) - 1))
		got, ref := runKernel(p, x, y, false), runKernel(p, x, y, true)
		exact := CrossCorrelateNaive(x, y)
		gotErr, refErr := 0.0, 0.0
		for w, v := range exact {
			i := (w - (len(y) - 1) + p.n) % p.n // lag w-(len(y)-1) sits at index lag mod n
			gotErr += math.Abs(got.cc[i] - v)
			refErr += math.Abs(ref.cc[i] - v)
		}
		if gotErr != 0 || refErr == 0 {
			t.Errorf("subnormal correlation: error %g, reference error %g; want 0 and nonzero", gotErr, refErr)
		}
	})
}
