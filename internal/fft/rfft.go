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
// component-wise, and CrossCorrelate folds its ½ into the exact 1/n.
// Outputs equal a divide-by-2 kernel's bit for bit but for the sign of a
// zero (Smith's (re + im·0)/2 gives +0) and the last bit where an
// intermediate is subnormal.
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

// transformHalf runs the radix-2 butterfly network of length half in place
// over x, given in bit-reversed order, with the stage twiddles tw (twF
// forward, twI inverse). Each sweep runs two stages, four points at a time,
// in the same operations and order as one stage per sweep. The size-2
// stage multiplies by nothing (its twiddle is 1): it joins size 4 when
// log₂half is even, and otherwise runs alone first.
//
//kshape:hotpath
func (p *RFFT) transformHalf(x []complex128, tw []complex128) {
	h := p.half
	size := 2 // the smallest stage not yet run
	if bits.TrailingZeros(uint(h))%2 == 1 {
		for i := 1; i < h; i += 2 {
			x[i-1], x[i] = x[i-1]+x[i], x[i-1]-x[i]
		}
		size = 4
	} else if h >= 4 {
		w0, w1 := tw[0], tw[h/4]
		for i := 0; i < h; i += 4 {
			a0, a1 := x[i]+x[i+1], x[i]-x[i+1]
			a2, a3 := x[i+2]+x[i+3], x[i+2]-x[i+3]
			b2, b3 := a2*w0, a3*w1
			x[i], x[i+2] = a0+b2, a0-b2
			x[i+1], x[i+3] = a1+b3, a1-b3
		}
		size = 8
	}
	// Stages size and 2·size pair points q and 2q apart, at twiddle strides
	// h/size and h/(2·size).
	for ; size < h; size <<= 2 {
		q := size >> 1
		s1 := h / size
		s2 := s1 >> 1
		for start := 0; start < h; start += 2 * size {
			blk := x[start : start+2*size : start+2*size]
			for k := 0; k < q; k++ {
				w := tw[k*s1]
				x0, x1 := blk[k], blk[k+q]*w
				x2, x3 := blk[k+2*q], blk[k+3*q]*w
				a0, a1 := x0+x1, x0-x1
				a2, a3 := x2+x3, x2-x3
				b2, b3 := a2*tw[k*s2], a3*tw[(k+q)*s2]
				blk[k], blk[k+2*q] = a0+b2, a0-b2
				blk[k+q], blk[k+3*q] = a1+b3, a1-b3
			}
		}
	}
}

// Len returns the real transform length n.
func (p *RFFT) Len() int { return p.n }

// SpectrumLen returns the half-spectrum length n/2+1 (bins 0..n/2; the
// remaining bins are the conjugate mirror and are never materialized).
func (p *RFFT) SpectrumLen() int { return p.half + 1 }

// WorkLen returns the scratch length n/2 that Forward and CrossCorrelate need.
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
	// Pack z_j = x_{2j} + i·x_{2j+1}, zero-padded beyond len(x), into the
	// bit-reversed slot of j.
	for j, r := range p.rev {
		re, im := 0.0, 0.0
		if 2*j < len(x) {
			re = x[2*j]
		}
		if 2*j+1 < len(x) {
			im = x[2*j+1]
		}
		work[r] = complex(re, im)
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

// CrossCorrelate writes into out (length n) the inverse DFT, scaled by 1/n,
// of a·conj(b) for the Hermitian half-spectra a and b (length SpectrumLen,
// as Forward writes them). For two real series that is their circular
// cross-correlation, lag s at index s mod n (Equation 12); against an
// all-ones b it is the plain inverse of a. work (length WorkLen) is
// clobbered; a and b are not modified.
//
//kshape:hotpath
func (p *RFFT) CrossCorrelate(a, b []complex128, out []float64, work []complex128) {
	if len(a) < p.half+1 || len(b) < p.half+1 || len(out) < p.n || len(work) < p.half {
		panic("fft: RFFT CrossCorrelate buffer too short")
	}
	obs.Inc(obs.CounterIFFT)
	if p.n == 1 {
		out[0] = real(a[0] * conj(b[0]))
		return
	}
	half := p.half
	// Re-tangle P_k = a_k·conj(b_k) into the bit-reversed slot of k as
	// 2·Z_k = P_k + conj(P_{h-k}) + i·W_n^{-k}·(P_k - conj(P_{h-k})), the ½
	// moved into the unpack's scale. Bins k and h-k share their products, so
	// one step writes both; bin 0 pairs with the Nyquist bin h (no slot).
	for k := 0; 2*k <= half; k++ {
		j := half - k
		pk, pj := a[k]*conj(b[k]), a[j]*conj(b[j])
		ok, oj := (pk-conj(pj))*conj(p.tw[k]), (pj-conj(pk))*conj(p.tw[j]) // 2·O_k, 2·O_j
		work[p.rev[k]] = pk + conj(pj) + complex(-imag(ok), real(ok))
		if 0 < k && k < j {
			work[p.rev[j]] = pj + conj(pk) + complex(-imag(oj), real(oj))
		}
	}
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
// Forward transforms and one CrossCorrelate on this plan. n must cover the
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
	cc := make([]float64, p.n)
	p.CrossCorrelate(sx, sy, cc, work)
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
