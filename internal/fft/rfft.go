package fft

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"kshape/internal/obs"
)

// RFFT is a precomputed plan for forward and inverse DFTs of real-valued
// input at one fixed power-of-two length n. It exploits conjugate symmetry
// by packing the real input into a complex sequence of length n/2, running
// a half-size complex transform, and untangling the halves with the
// precomputed twiddle factors — about half the butterfly work and half the
// buffer traffic of a complex transform of the same length.
//
// A plan is immutable after construction and safe for concurrent use; all
// per-call state lives in caller-provided buffers, so the transforms
// allocate nothing. Every SBD path (internal/dist) takes its plan from the
// shared table Plan and streams every spectrum and correlation through it.
//
// Neither transform divides a complex128 (a runtime call): halvings are
// component-wise, and Inverse folds its ½ into the exact 1/n. Outputs equal
// a divide-by-2 kernel's bit for bit but for the sign of a zero (Smith's
// (re + im·0)/2 gives +0) and the last bit where an intermediate is subnormal.
type RFFT struct {
	n    int // real transform length (power of two)
	half int // n / 2: packed complex length
	// tw[k] = e^{-2πik/n} for k = 0..n/2, the untangling twiddles.
	tw []complex128
	// Tables for the plan-private half-size complex transform: the
	// bit-reversal permutation and the per-stage butterfly twiddles
	// (twF[j] = e^{-2πij/half}, twI its conjugate), indexed with a stride of
	// half/size at stage size, so no butterfly recomputes a twiddle.
	rev      []int32
	twF, twI []complex128
}

// NewRFFT builds a plan for real transforms of length n (a power of two).
func NewRFFT(n int) *RFFT {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: RFFT length %d is not a power of two", n))
	}
	half := n / 2
	p := &RFFT{n: n, half: half, tw: make([]complex128, half+1)}
	for k := 0; k <= half; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.tw[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	if half > 0 {
		logH := bits.TrailingZeros(uint(half))
		p.rev = make([]int32, half)
		for i := 0; i < half; i++ {
			p.rev[i] = int32(bits.Reverse(uint(i)) >> (bits.UintSize - logH))
		}
		p.twF = make([]complex128, half/2)
		p.twI = make([]complex128, half/2)
		for j := range p.twF {
			ang := -2 * math.Pi * float64(j) / float64(half)
			p.twF[j] = complex(math.Cos(ang), math.Sin(ang))
			p.twI[j] = complex(math.Cos(ang), -math.Sin(ang))
		}
	}
	return p
}

// transformHalf runs the radix-2 butterfly network of length half over x in
// place, using the precomputed bit-reversal permutation and the stage
// twiddles tw (twF forward, twI inverse). The tables are exact per index,
// so no rounding accumulates across a stage.
//
//kshape:hotpath
func (p *RFFT) transformHalf(x []complex128, tw []complex128) {
	h := p.half
	for i, j := range p.rev {
		if i < int(j) {
			x[i], x[int(j)] = x[int(j)], x[i]
		}
	}
	for i := 1; i < h; i += 2 { // the size-2 stage: its only twiddle is 1
		x[i-1], x[i] = x[i-1]+x[i], x[i-1]-x[i]
	}
	for size := 4; size <= h; size <<= 1 {
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

// Len returns the real transform length n.
func (p *RFFT) Len() int { return p.n }

// SpectrumLen returns the half-spectrum length n/2+1 (bins 0..n/2; the
// remaining bins are the conjugate mirror and are never materialized).
func (p *RFFT) SpectrumLen() int { return p.half + 1 }

// WorkLen returns the scratch length n/2 required by Forward and Inverse.
func (p *RFFT) WorkLen() int { return p.half }

// Forward computes the DFT of the real input x zero-padded to length n,
// writing the Hermitian half-spectrum X_0..X_{n/2} into spec (length
// SpectrumLen). work (length WorkLen) is clobbered; x is not modified and
// must not exceed n samples. The result matches bins 0..n/2 of the direct
// DFT of the zero-padded input up to rounding (no scaling).
//
//kshape:hotpath
func (p *RFFT) Forward(x []float64, spec, work []complex128) {
	if len(x) > p.n {
		panic(fmt.Sprintf("fft: RFFT input length %d exceeds plan length %d", len(x), p.n))
	}
	if len(spec) < p.half+1 || len(work) < p.half {
		panic("fft: RFFT Forward buffer too short")
	}
	if p.n == 1 {
		// Degenerate single-bin transform; count it like any other forward
		// transform so kernel-counter totals do not depend on the length.
		obs.Inc(obs.CounterFFT)
		v := 0.0
		if len(x) == 1 {
			v = x[0]
		}
		spec[0] = complex(v, 0)
		return
	}
	half := p.half
	// Pack consecutive sample pairs into one complex point each:
	// z_j = x_{2j} + i·x_{2j+1}, zero-padded beyond len(x).
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
	obs.Inc(obs.CounterFFT)
	p.transformHalf(work[:half], p.twF)
	// Untangle: with E/O the spectra of the even/odd samples,
	// E_k = (Z_k + conj(Z_{h-k}))/2, O_k = -i·(Z_k - conj(Z_{h-k}))/2,
	// X_k = E_k + W_n^k·O_k for k = 0..n/2 (indices of Z mod h).
	for k := 0; k <= half; k++ {
		zk := work[k%half]
		zc := conj(work[(half-k)%half])
		s, d := zk+zc, zk-zc
		even := complex(real(s)*0.5, imag(s)*0.5)
		odd := complex(imag(d)*0.5, -real(d)*0.5) // d/2 times -i
		spec[k] = even + p.tw[k]*odd
	}
}

// Inverse computes the inverse DFT of the Hermitian half-spectrum spec
// (length SpectrumLen, as produced by Forward — bins beyond n/2 are implied
// by conjugate symmetry), writing the real result of length n into out.
// work (length WorkLen) is clobbered; spec is not modified. The result is
// scaled by 1/n, so the round trip Forward→Inverse reproduces the padded
// input.
//
//kshape:hotpath
func (p *RFFT) Inverse(spec []complex128, out []float64, work []complex128) {
	if len(spec) < p.half+1 || len(out) < p.n || len(work) < p.half {
		panic("fft: RFFT Inverse buffer too short")
	}
	if p.n == 1 {
		obs.Inc(obs.CounterIFFT)
		out[0] = real(spec[0])
		return
	}
	half := p.half
	// Re-tangle the half-spectrum into the packed transform:
	// E_k = (X_k + conj(X_{h-k}))/2, O_k = W_n^{-k}·(X_k - conj(X_{h-k}))/2,
	// Z_k = E_k + i·O_k. work holds 2·Z_k: the halving moves into the
	// unpack's scale, so the half-size inverse yields 2·z_j for the packed
	// samples z_j = x_{2j} + i·x_{2j+1}.
	for k := 0; k < half; k++ {
		xk := spec[k]
		xc := conj(spec[half-k])
		odd := (xk - xc) * conj(p.tw[k])                   // 2·O_k
		work[k] = xk + xc + complex(-imag(odd), real(odd)) // + i·odd
	}
	obs.Inc(obs.CounterIFFT)
	p.transformHalf(work[:half], p.twI)
	// Unpack with the 1/(n/2) normalization and the re-tangle's ½ folded
	// into one factor 1/n; n is a power of two, so multiplying by its
	// exact reciprocal is bit-identical to dividing by it.
	scale := 1 / float64(p.n)
	for j := 0; j < half; j++ {
		out[2*j] = real(work[j]) * scale
		out[2*j+1] = imag(work[j]) * scale
	}
}

// Correlate returns the linear cross-correlation of x and y — the sequence
// CrossCorrelateNaive returns, of length len(x)+len(y)-1 with entry w at
// lag w-(len(y)-1) — as IFFT(FFT(x)·conj(FFT(y))) (Equation 12): two
// forward transforms and one inverse on this plan. n must cover the
// output length so the circular correlation does not wrap.
func (p *RFFT) Correlate(x, y []float64) []float64 {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	outLen := len(x) + len(y) - 1
	if outLen > p.n {
		panic(fmt.Sprintf("fft: correlation length %d exceeds plan length %d", outLen, p.n))
	}
	h := p.half + 1
	buf := make([]complex128, 2*h+p.half)
	sx, sy, work := buf[:h], buf[h:2*h], buf[2*h:]
	p.Forward(x, sx, work)
	p.Forward(y, sy, work)
	for k := range sx {
		sx[k] *= conj(sy[k])
	}
	cc := make([]float64, p.n)
	p.Inverse(sx, cc, work)
	// The circular result holds lag s at index s mod n: rotate right by
	// len(y)-1 so the negative lags move from the tail to the front.
	r := len(y) - 1
	slices.Reverse(cc)
	slices.Reverse(cc[:r])
	slices.Reverse(cc[r:])
	return cc[:outLen:outLen]
}

// conj avoids pulling math/cmplx into the hot loops for a one-liner.
//
//kshape:hotpath
func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }
