// Command gencorpus regenerates the checked-in seed corpora for the
// module's fuzz targets (testdata/fuzz/<Target>/ in each kernel package).
// Run it from the repository root:
//
//	go run ./internal/testkit/gencorpus
//
// The corpora are deterministic renderings of hand-picked shapes: the
// degenerate inputs that historically break distance kernels (constants,
// zeros, spikes, single points), boundary lengths around the FFT padding,
// and regression inputs for bugs the differential harness surfaced (the
// constant-127 series whose rounding-level Std defeated ZNormalize's exact
// zero-variance guard). Keeping them as generated files rather than opaque
// binaries makes every seed reviewable here.
package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"kshape/internal/testkit"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gencorpus:", err)
		os.Exit(1)
	}
}

// entry is one corpus file: the Go-syntax lines after the version header.
type entry struct {
	name  string
	lines []string
}

// bytesLine renders a []byte fuzz argument in corpus syntax.
func bytesLine(b []byte) string { return "[]byte(" + strconv.Quote(string(b)) + ")" }

// byteLine renders a byte fuzz argument in corpus syntax.
func byteLine(b byte) string { return "byte(" + strconv.QuoteRune(rune(b)) + ")" }

func run() error {
	targets := []struct {
		dir     string
		entries []entry
	}{
		{"internal/dist/testdata/fuzz/FuzzSBD", sbdEntries()},
		{"internal/dist/testdata/fuzz/FuzzDTWBand", dtwEntries()},
		{"internal/fft/testdata/fuzz/FuzzFFTRoundTrip", fftEntries()},
		{"internal/fft/testdata/fuzz/FuzzRFFT", rfftEntries()},
		{"internal/ts/testdata/fuzz/FuzzZNormalize", znormEntries()},
		{"internal/dataset/testdata/fuzz/FuzzUCRLoader", ucrEntries()},
		{"testdata/fuzz/FuzzCluster", clusterEntries()},
	}
	for _, tgt := range targets {
		if err := os.MkdirAll(tgt.dir, 0o755); err != nil {
			return err
		}
		for _, e := range tgt.entries {
			content := "go test fuzz v1\n"
			for _, l := range e.lines {
				content += l + "\n"
			}
			if err := os.WriteFile(filepath.Join(tgt.dir, e.name), []byte(content), 0o644); err != nil {
				return err
			}
			fmt.Println(filepath.Join(tgt.dir, e.name))
		}
	}
	return nil
}

// pairBytes encodes x followed by y (equal lengths) as one fuzz input.
func pairBytes(x, y []float64) []byte {
	return testkit.EncodeFloats(append(append([]float64(nil), x...), y...))
}

func sine(m int, freq, phase float64) []float64 {
	out := make([]float64, m)
	for i := range out {
		out[i] = math.Sin(freq*2*math.Pi*float64(i)/float64(m) + phase)
	}
	return out
}

func constant(m int, v float64) []float64 {
	out := make([]float64, m)
	for i := range out {
		out[i] = v
	}
	return out
}

func spike(m, at int, v float64) []float64 {
	out := make([]float64, m)
	out[at] = v
	return out
}

func ramp(m int, slope float64) []float64 {
	out := make([]float64, m)
	for i := range out {
		out[i] = slope * float64(i)
	}
	return out
}

func sbdEntries() []entry {
	return []entry{
		{"sine-vs-shifted", []string{bytesLine(pairBytes(sine(32, 1, 0), sine(32, 1, 1.2)))}},
		{"constant-pair", []string{bytesLine(pairBytes(constant(16, 3.25), constant(16, -2)))}},
		{"zeros", []string{bytesLine(pairBytes(constant(8, 0), constant(8, 0)))}},
		{"spike-vs-spike", []string{bytesLine(pairBytes(spike(24, 3, 100), spike(24, 19, -50)))}},
		{"pow2-boundary", []string{bytesLine(pairBytes(sine(64, 3, 0.5), ramp(64, 0.25)))}},
		{"odd-length", []string{bytesLine(pairBytes(sine(31, 2, 0), spike(31, 15, 7)))}},
		{"single-point", []string{bytesLine(pairBytes([]float64{2.5}, []float64{-1.5}))}},
		// Regression: with norms near 1e-100, sqrt(Dot(x,x)·Dot(y,y))
		// underflowed to 0 and SBD(x,x) returned the degenerate 1 instead
		// of 0; the denominator now multiplies the norms directly.
		{"tiny-norm-underflow", []string{bytesLine(pairBytes([]float64{1.2e-100}, []float64{1.3e-76}))}},
	}
}

func dtwEntries() []entry {
	return []entry{
		{"diagonal-band", []string{byteLine(1), bytesLine(pairBytes(ramp(10, 1), ramp(10, -1)))}},
		{"full-band-sine", []string{byteLine(255), bytesLine(pairBytes(sine(24, 1, 0), sine(24, 2, 0.7)))}},
		{"minimal-band", []string{byteLine(2), bytesLine(pairBytes(spike(12, 2, 5), spike(12, 9, 5)))}},
		{"single-point", []string{byteLine(0), bytesLine(pairBytes([]float64{1}, []float64{-1}))}},
		{"constant-vs-steps", []string{byteLine(4), bytesLine(pairBytes(constant(16, 2), ramp(16, 0.5)))}},
	}
}

// cancel64 alternates ±1e6 over 64 samples: every pairwise product cancels
// in the correlation sums.
func cancel64() []float64 {
	cancel := make([]float64, 64)
	for i := range cancel {
		cancel[i] = 1e6
		if i%2 == 1 {
			cancel[i] = -1e6
		}
	}
	return cancel
}

func fftEntries() []entry {
	cancel := cancel64()
	return []entry{
		{"impulse", []string{bytesLine(testkit.EncodeFloats(spike(16, 0, 1)))}},
		{"alternating", []string{bytesLine(testkit.EncodeFloats(cancel[:8]))}},
		{"cancellation-large", []string{bytesLine(testkit.EncodeFloats(cancel))}},
		{"single-value", []string{bytesLine(testkit.EncodeFloats([]float64{5}))}},
		{"non-pow2-length", []string{bytesLine(testkit.EncodeFloats(sine(27, 2, 0.3)))}},
	}
}

func rfftEntries() []entry {
	cancel := make([]float64, 32)
	for i := range cancel {
		cancel[i] = 1e8
		if i%2 == 1 {
			cancel[i] = -1e8
		}
	}
	return []entry{
		// Length regimes: power-of-two (transforms with zero padding only
		// from the doubled plan), odd, prime, and the single-point
		// degenerate plan, plus a cancellation-heavy input whose spectrum
		// concentrates in the top bin — the untangling's k=half edge.
		{"impulse-pow2", []string{bytesLine(testkit.EncodeFloats(spike(16, 0, 1)))}},
		{"sine-pow2", []string{bytesLine(testkit.EncodeFloats(sine(64, 3, 0.4)))}},
		{"odd-length", []string{bytesLine(testkit.EncodeFloats(sine(27, 2, 0.3)))}},
		{"prime-length", []string{bytesLine(testkit.EncodeFloats(ramp(13, 0.75)))}},
		{"single-value", []string{bytesLine(testkit.EncodeFloats([]float64{5}))}},
		{"alternating-large", []string{bytesLine(testkit.EncodeFloats(cancel))}},
		{"constant", []string{bytesLine(testkit.EncodeFloats(constant(24, -3.5)))}},
		// Alternating ±1e6 over 64 points: large terms cancel in every
		// bin but the Nyquist one, where the spectrum peaks.
		{"cancellation-large", []string{bytesLine(testkit.EncodeFloats(cancel64()))}},
	}
}

func znormEntries() []entry {
	wiggle := constant(64, 1e6)
	wiggle[10] += 0.125
	wiggle[40] -= 0.125
	return []entry{
		// Regression: rounding in Mean over 127 copies of this value left
		// Std at ~1.8e-15, defeating the exact sd == 0 guard; ZNormalize
		// mapped the constant series to all ones.
		{"constant-127-rounding", []string{bytesLine(testkit.EncodeFloats(constant(127, -1.7954023232620309)))}},
		{"ramp", []string{bytesLine(testkit.EncodeFloats(ramp(32, 2)))}},
		{"huge-mean-tiny-variance", []string{bytesLine(testkit.EncodeFloats(wiggle))}},
		{"single-value", []string{bytesLine(testkit.EncodeFloats([]float64{42}))}},
		{"two-values", []string{bytesLine(testkit.EncodeFloats([]float64{1, 2}))}},
	}
}

func ucrEntries() []entry {
	return []entry{
		{"comma-two-rows", []string{bytesLine([]byte("1,0.5,1.5,2.5\n2,3.0,2.0,1.0\n"))}},
		{"tab-separated", []string{bytesLine([]byte("1\t0.5\t1.5\n2\t2.5\t3.5\n"))}},
		{"float-integer-label", []string{bytesLine([]byte("3.0 1 2 3\n"))}},
		{"scientific-notation", []string{bytesLine([]byte("-1,1e300,-2.5e-10,0\n"))}},
		{"ragged-rejected", []string{bytesLine([]byte("1,2,3\n4,5\n"))}},
		{"nan-rejected", []string{bytesLine([]byte("1,NaN,2\n"))}},
		{"blank-lines", []string{bytesLine([]byte("\n\n1,1,2\n\n2,3,4\n\n"))}},
		{"trailing-commas", []string{bytesLine([]byte("1,1,2,\n2,3,4,\n"))}},
	}
}

// clusterLines renders one FuzzCluster input: k, the row length m, the
// ragged-row drop, and the rows laid end to end.
func clusterLines(k, m, drop byte, rows ...[]float64) []string {
	var vals []float64
	for _, r := range rows {
		vals = append(vals, r...)
	}
	return []string{byteLine(k), byteLine(m), byteLine(drop), bytesLine(testkit.EncodeFloats(vals))}
}

// clusterEntries seed the public-API boundary cases: inputs the facade
// must reject (zero-length, NaN, Inf, ragged, k = 0, k > n) and degenerate
// ones it must cluster (all-constant members, k = n, n = 1, m = 1).
func clusterEntries() []entry {
	nan := sine(8, 1, 0)
	nan[1] = math.NaN()
	inf := sine(8, 2, 0)
	inf[5] = math.Inf(-1)
	return []entry{
		{"zero-length", clusterLines(2, 0, 0)},
		{"nan", clusterLines(2, 8, 0, sine(8, 1, 0.5), nan, ramp(8, 1))},
		{"inf", clusterLines(2, 8, 0, sine(8, 1, 0.5), inf, ramp(8, 1))},
		{"ragged", clusterLines(2, 8, 2, sine(8, 1, 0), sine(8, 2, 0), ramp(8, 1))},
		{"k-zero", clusterLines(0, 8, 0, sine(8, 1, 0), ramp(8, 1))},
		{"k-above-n", clusterLines(5, 8, 0, sine(8, 1, 0), ramp(8, 1), spike(8, 3, 1))},
		{"all-constant", clusterLines(2, 8, 0, constant(8, 3), constant(8, -1), constant(8, 0), constant(8, 7.5))},
		{"constant-and-shapes", clusterLines(2, 16, 0, constant(16, 2), constant(16, 2), sine(16, 1, 0), sine(16, 1, 0.3))},
		{"k-equals-n", clusterLines(4, 12, 0, sine(12, 1, 0), sine(12, 2, 0), ramp(12, 1), spike(12, 6, 4))},
		{"single-series", clusterLines(1, 16, 0, sine(16, 1, 0.2))},
		{"length-one", clusterLines(2, 1, 0, []float64{1}, []float64{-2}, []float64{3}, []float64{0.5}, []float64{4})},
	}
}
