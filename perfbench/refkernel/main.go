// Command refkernel runs the benchmark's reference kernels on request. It is
// a program of its own, importing nothing of the measured code, so its
// machine code stays byte for byte the same when the measured code
// changes: a kernel linked into the benchmark's binary ran up to 20%
// faster or slower after an unrelated change elsewhere in that binary
// moved its loops.
//
// Protocol: each line on standard input names a kernel ("fft" or "gram");
// refkernel runs it once and answers with one line, its wall time in
// nanoseconds. It exits at the end of its input.
package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"time"
)

// Kernel sizes: each kernel has the inner loop of the measured program's
// dominant layer on the workloads that use it.
const (
	fftRows, fftPoints = 200, 512 // 1.6 MB of complex128, like the SBD spectra
	gramM, gramRank    = 512, 6   // a 2 MB Gram matrix, like extraction at m=512
)

func main() {
	kernels := map[string]func(){"fft": newFFT(), "gram": newGram()}
	in := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	for in.Scan() {
		run, ok := kernels[in.Text()]
		if !ok {
			fmt.Fprintf(os.Stderr, "refkernel: unknown kernel %q\n", in.Text())
			os.Exit(2)
		}
		t0 := time.Now()
		run()
		fmt.Fprintln(out, time.Since(t0).Nanoseconds())
		if err := out.Flush(); err != nil {
			os.Exit(1)
		}
	}
}

// newFFT returns radix-2 complex FFTs of fftRows rows of fftPoints points
// each: the butterflies of SBD's cross-correlation.
func newFFT() func() {
	src := make([]complex128, fftRows*fftPoints)
	for i := range src {
		src[i] = complex(math.Sin(float64(i)*0.37), math.Cos(float64(i)*0.11))
	}
	work := make([]complex128, len(src))
	tw := make([]complex128, fftPoints/2)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / fftPoints)
		tw[k] = complex(c, s)
	}
	run := func() {
		copy(work, src)
		for row := 0; row < fftRows; row++ {
			fftInPlace(work[row*fftPoints:(row+1)*fftPoints], tw)
		}
	}
	run()
	return run
}

func fftInPlace(x, tw []complex128) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half, step := size>>1, n/size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				t := tw[k*step] * x[start+k+half]
				x[start+k+half] = x[start+k] - t
				x[start+k] += t
			}
		}
	}
}

// newGram returns gramRank rank-one updates of a gramM×gramM matrix
// followed by as many power-iteration steps: the Gram build and eigensolve
// of shape extraction.
func newGram() func() {
	a := make([]float64, gramM*gramM)
	vs := make([][]float64, gramRank)
	for v := range vs {
		vs[v] = make([]float64, gramM)
		for i := range vs[v] {
			vs[v][i] = math.Sin(float64(i*(v+1)) * 0.01)
		}
	}
	x, y := make([]float64, gramM), make([]float64, gramM)
	run := func() {
		clear(a)
		for _, v := range vs {
			for i, vi := range v {
				row := a[i*gramM : (i+1)*gramM]
				for j, vj := range v {
					row[j] += vi * vj
				}
			}
		}
		copy(x, vs[0])
		for range gramRank {
			for i := range y {
				row := a[i*gramM : (i+1)*gramM]
				s := 0.0
				for j, xj := range x {
					s += row[j] * xj
				}
				y[i] = s
			}
			norm := 0.0
			for _, v := range y {
				norm += v * v
			}
			norm = math.Sqrt(norm)
			for i, v := range y {
				x[i] = v / norm
			}
		}
	}
	run()
	return run
}
