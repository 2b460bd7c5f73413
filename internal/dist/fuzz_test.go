// Fuzz targets for the distance kernels, in an external test package so
// they can drive the kernels through the shared testkit harness (testkit
// imports dist, so an internal test package would cycle).
//
// Seed corpora live in testdata/fuzz/<Target>/ (regenerate with
// `go run ./internal/testkit/gencorpus`); the in-code f.Add seeds duplicate
// the most important shapes so `go test` alone exercises them too.
package dist_test

import (
	"math"
	"testing"

	"kshape/internal/dist"
	"kshape/internal/testkit"
	"kshape/internal/ts"
)

// fuzzTol is the relative tolerance for fuzz invariants. Fuzz inputs reach
// magnitudes up to 1e6 (far beyond z-normalized data), so this sits above
// the differential suite's 1e-9 purely to absorb the wider dynamic range.
const fuzzTol = 1e-6

func leq(a, b, tol float64) bool { return a <= b+tol*(1+math.Abs(a)+math.Abs(b)) }

func FuzzSBD(f *testing.F) {
	f.Add(testkit.EncodeFloats([]float64{1, 2, 3, 2, 1, 0, 1, 2, 3, 2}))
	f.Add(testkit.EncodeFloats([]float64{0, 0, 0, 0, 5, 5, 5, 5}))
	f.Add(testkit.EncodeFloats(sineSpikePair(32)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		x, y := testkit.DecodePair(data, 256)
		if len(x) == 0 {
			return
		}
		d, aligned := dist.SBD(x, y)
		if d < -fuzzTol || d > 2+fuzzTol {
			t.Fatalf("SBD = %v outside [0, 2] (m=%d)", d, len(x))
		}
		if len(aligned) != len(y) {
			t.Fatalf("aligned length %d, want %d", len(aligned), len(y))
		}
		// All three implementation variants of Table 2 agree.
		dNoPow2, _ := dist.SBDNoPow2(x, y)
		dNoFFT, _ := dist.SBDNoFFT(x, y)
		if !testkit.Close(d, dNoPow2, fuzzTol) {
			t.Fatalf("SBD %v vs SBDNoPow2 %v (m=%d)", d, dNoPow2, len(x))
		}
		if !testkit.Close(d, dNoFFT, fuzzTol) {
			t.Fatalf("SBD %v vs SBDNoFFT %v (m=%d)", d, dNoFFT, len(x))
		}
		// Symmetry of the distance value.
		dRev, _ := dist.SBD(y, x)
		if !testkit.Close(d, dRev, fuzzTol) {
			t.Fatalf("SBD(x,y) %v vs SBD(y,x) %v (m=%d)", d, dRev, len(x))
		}
		// Positive-scale invariance: SBD ignores amplitude (Eq. 9 normalizes
		// by the norms).
		scale := 0.25 + 3.75*float64(len(data)%97)/96
		dScaled, _ := dist.SBD(x, ts.Scale(y, scale))
		if !testkit.Close(d, dScaled, fuzzTol) {
			t.Fatalf("SBD %v changed to %v under y*%v (m=%d)", d, dScaled, scale, len(x))
		}
		// Self-distance is 0 for non-degenerate x, 1 for the all-zero series.
		dSelf, _ := dist.SBD(x, x)
		if ts.Norm(x) > 0 {
			if !testkit.Close(dSelf, 0, fuzzTol) {
				t.Fatalf("SBD(x,x) = %v, want 0 (m=%d)", dSelf, len(x))
			}
		} else if !testkit.Close(dSelf, 1, fuzzTol) {
			t.Fatalf("SBD(0,0) = %v, want 1 by the degenerate convention", dSelf)
		}
	})
}

func FuzzDTWBand(f *testing.F) {
	f.Add(byte(2), testkit.EncodeFloats([]float64{0, 1, 2, 3, 4, 4, 3, 2, 1, 0}))
	f.Add(byte(0), testkit.EncodeFloats([]float64{1, 1, 1, 1, 5, 5, 5, 5}))
	f.Add(byte(255), testkit.EncodeFloats(sineSpikePair(24)))
	f.Add(byte(7), []byte{})
	f.Fuzz(func(t *testing.T, wByte byte, data []byte) {
		x, y := testkit.DecodePair(data, 48)
		m := len(x)
		if m == 0 {
			return
		}
		w := int(wByte)%(m+2) - 1 // covers -1 (unconstrained) through m
		cdtw := dist.CDTW(x, y, w)
		if math.IsInf(cdtw, 1) || math.IsNaN(cdtw) {
			t.Fatalf("cDTW(w=%d) = %v on equal lengths (m=%d)", w, cdtw, m)
		}
		if cdtw < 0 {
			t.Fatalf("cDTW(w=%d) = %v < 0", w, cdtw)
		}
		// The invariant chain of the pruned 1-NN search:
		// LB_Keogh <= cDTW(w), DTW <= cDTW(w) <= ED.
		ew := w
		if ew < 0 {
			ew = m
		}
		upper, lower := dist.Envelope(y, ew)
		if lb := dist.LBKeogh(x, upper, lower); !leq(lb, cdtw, fuzzTol) {
			t.Fatalf("LB_Keogh %v > cDTW(w=%d) %v (m=%d)", lb, w, cdtw, m)
		}
		full := dist.DTW(x, y)
		if !leq(full, cdtw, fuzzTol) {
			t.Fatalf("DTW %v > cDTW(w=%d) %v (m=%d)", full, w, cdtw, m)
		}
		ed := dist.ED(x, y)
		if !leq(cdtw, ed, fuzzTol) {
			t.Fatalf("cDTW(w=%d) %v > ED %v (m=%d)", w, cdtw, ed, m)
		}
		// Widening the band never increases the distance.
		if w >= 0 {
			if wider := dist.CDTW(x, y, w+1); !leq(wider, cdtw, fuzzTol) {
				t.Fatalf("cDTW(w=%d) %v > cDTW(w=%d) %v (m=%d)", w+1, wider, w, cdtw, m)
			}
		}
		// Symmetry for equal lengths.
		if rev := dist.CDTW(y, x, w); !testkit.Close(cdtw, rev, fuzzTol) {
			t.Fatalf("cDTW(x,y,w=%d) %v vs cDTW(y,x) %v (m=%d)", w, cdtw, rev, m)
		}
		// Identity: warping a series onto itself costs nothing.
		if self := dist.CDTW(x, x, w); self > fuzzTol {
			t.Fatalf("cDTW(x,x,w=%d) = %v, want 0 (m=%d)", w, self, m)
		}
		// WarpingPath agrees with the rolling-row distance.
		if _, pd := dist.WarpingPath(x, y, w); !testkit.Close(pd, cdtw, fuzzTol) {
			t.Fatalf("WarpingPath distance %v vs cDTW %v (w=%d, m=%d)", pd, cdtw, w, m)
		}
	})
}

// FuzzPhaseBound checks the phase bound Nearest meets before each exact
// SBD, which needs l ≥ 128 and so lengths FuzzClassify1NN (m ≤ 32) never
// reaches: the decoded values, tiled when there are too few, fill x and
// then y, both of length m = 100 + mb mod 201 (l = 256, 512 or 1024), and
// x is scaled by 2^e and y by 2^-e, e = scale mod 301. The bound applies
// whenever both norms lie in the bound's range, and then it is at most
// SBD + ScanMargin.
func FuzzPhaseBound(f *testing.F) {
	f.Add(byte(156), int16(0), testkit.EncodeFloats(sineSpikePair(256)))
	f.Add(byte(0), int16(-300), testkit.EncodeFloats([]float64{1, 0.5, -1, 2, 0.25, -3}))
	f.Fuzz(func(t *testing.T, mb byte, scale int16, data []byte) {
		vals := testkit.DecodeFloats(data, 600)
		if len(vals) == 0 {
			return
		}
		m, e := 100+int(mb)%201, int(scale)%301
		x, y := make([]float64, m), make([]float64, m)
		for i := range x {
			x[i] = math.Ldexp(vals[i%len(vals)], e)
			y[i] = math.Ldexp(vals[(m+i)%len(vals)], -e)
		}
		b := dist.NewSBDBatch([][]float64{x})
		q := b.Query(y)
		lb := q.PhaseBounds()[0]
		inRange := func(v []float64) bool {
			n := ts.Norm(v)
			return n >= dist.MinBoundNorm && n <= dist.MaxBoundNorm
		}
		if inRange(x) && inRange(y) && math.IsNaN(lb) {
			t.Fatalf("m=%d e=%d: norms %v, %v in range but no phase bound", m, e, ts.Norm(x), ts.Norm(y))
		}
		if d, _ := q.Distance(0); lb > d+dist.ScanMargin {
			t.Fatalf("m=%d e=%d: phase bound %v above SBD %v", m, e, lb, d)
		}
	})
}

// sineSpikePair builds a 2m-value buffer whose halves decode into a sinusoid
// and a spiked flat line — a seed that exercises alignment and the band.
func sineSpikePair(m int) []float64 {
	vals := make([]float64, 2*m)
	for i := 0; i < m; i++ {
		vals[i] = math.Sin(2 * math.Pi * float64(i) / float64(m))
	}
	vals[m+m/2] = 10
	return vals
}
