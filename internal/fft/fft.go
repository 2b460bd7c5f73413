// Package fft implements the frequency-domain cross-correlation behind the
// shape-based distance (SBD) of the k-Shape paper (Equations 10-12): a
// real-input radix-2 FFT plan (RFFT) per power-of-two length, the shared
// per-length plan table Plan, the linear correlation RFFT.Correlate built
// on it, and the direct O(m²) correlation CrossCorrelateNaive, which is
// both the reference every FFT path is tested against and the SBD_NoFFT
// row of Table 2.
//
// The package is self-contained (standard library only) and deterministic.
// Transforms require power-of-two lengths; NextPow2 computes the padding
// target.
package fft

import (
	"fmt"
	"math/bits"
	"sync"
)

// NextPow2 returns the smallest power of two >= n. It panics for n <= 0 and
// for n so large that the result would overflow an int.
func NextPow2(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("fft: NextPow2 of non-positive %d", n))
	}
	if n&(n-1) == 0 {
		return n
	}
	shift := bits.Len(uint(n))
	if shift >= bits.UintSize-2 {
		panic(fmt.Sprintf("fft: NextPow2 overflow for %d", n))
	}
	return 1 << shift
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// plans holds the shared plan of each power-of-two length, indexed by
// log₂ of the length, so the table is bounded by the word size and each
// plan is built at most once per process.
var plans [bits.UintSize]struct {
	once sync.Once
	p    *RFFT
}

// Plan returns the shared plan for real transforms of length n (a power of
// two), building it on first use. Plans are immutable, so one plan serves
// every caller and goroutine; per-call state lives in caller buffers.
func Plan(n int) *RFFT {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: RFFT length %d is not a power of two", n))
	}
	slot := &plans[bits.TrailingZeros(uint(n))]
	slot.once.Do(func() { slot.p = NewRFFT(n) })
	return slot.p
}

// CrossCorrelateNaive returns the full cross-correlation sequence CC(x, y)
// of length len(x)+len(y)-1, computed directly in O(len(x)*len(y)) time.
// Entry w (0-based) corresponds to lag s = w - (len(y) - 1): element w is
// sum_l x[l+s] * y[l]. For equal-length inputs of length m this is the
// paper's CC_w with w in {1, ..., 2m-1} (1-based) and shift s = w - m.
func CrossCorrelateNaive(x, y []float64) []float64 {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	outLen := len(x) + len(y) - 1
	out := make([]float64, outLen)
	my := len(y)
	for w := 0; w < outLen; w++ {
		lag := w - (my - 1) // x is shifted right by lag relative to y
		s := 0.0
		for l := 0; l < my; l++ {
			xi := l + lag
			if xi < 0 || xi >= len(x) {
				continue
			}
			s += x[xi] * y[l]
		}
		out[w] = s
	}
	return out
}
