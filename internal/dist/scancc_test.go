package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kshape/internal/ts"
)

// scanCCOneLane is the one-lane lag scan scanCC replaced, kept verbatim as
// the reference the four-lane scan must reproduce bit for bit: it visits
// the lags in ascending order with a strict comparison, so ties go to the
// most negative lag.
func scanCCOneLane(neg, pos []float64, den float64) (float64, int) {
	best, bestLag := math.Inf(-1), 0
	for i, v := range neg {
		if v > best {
			best, bestLag = v, i-len(neg)
		}
	}
	for lag, v := range pos {
		if v > best {
			best, bestLag = v, lag
		}
	}
	return 1 - best/den, bestLag
}

// checkScanCC compares scanCC with the one-lane reference on one
// cross-correlation laid out as m-1 negative lags then m non-negative ones.
func checkScanCC(t *testing.T, what string, cc []float64, den float64) {
	t.Helper()
	m := (len(cc) + 1) / 2
	neg, pos := cc[:m-1], cc[m-1:]
	d, lag := scanCC(neg, pos, den)
	wantD, wantLag := scanCCOneLane(neg, pos, den)
	if math.Float64bits(d) != math.Float64bits(wantD) || lag != wantLag {
		t.Fatalf("%s: scanCC(%v, %v, %v) = (%v, %d), one-lane scan (%v, %d)",
			what, neg, pos, den, d, lag, wantD, wantLag)
	}
}

// TestScanCCMatchesOneLane pins the four-lane scan to the one-lane
// reference on random inputs at every m = 1..17 (an empty negative run at
// m = 1, and every tail length mod 4 in both runs), on values drawn from a
// small set so ties across lanes and runs are forced, and on the IEEE edge
// cases.
func TestScanCCMatchesOneLane(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small := []float64{-2, -1, 0, math.Copysign(0, -1), 1, 2}
	for trial := 0; trial < 2000; trial++ {
		m := 1 + trial%17
		cc := make([]float64, 2*m-1)
		for i := range cc {
			cc[i] = rng.NormFloat64()
		}
		checkScanCC(t, fmt.Sprintf("random trial %d", trial), cc, 1+rng.Float64())
		for i := range cc {
			cc[i] = small[rng.Intn(len(small))]
		}
		checkScanCC(t, fmt.Sprintf("tied trial %d", trial), cc, 1+rng.Float64())
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name string
		cc   []float64
	}{
		{"+Inf in the negative run", []float64{1, inf, 2, 3, inf, 0, 1}},
		{"+Inf in the positive run", []float64{1, 0, 2, 3, inf, 0, inf}},
		{"-Inf among values", []float64{math.Inf(-1), -5, math.Inf(-1), -7, -5}},
		{"NaN before the maximum", []float64{nan, nan, 1, nan, 0, 1, nan}},
		{"NaN after the maximum", []float64{0, 3, nan, nan, 3, nan, 1}},
		{"all equal", []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}},
		{"all equal m=1", []float64{0.5}},
		{"all -Inf", []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)}},
		{"all NaN", []float64{nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan}},
		{"-Inf and NaN", []float64{nan, math.Inf(-1), nan, math.Inf(-1), nan}},
	} {
		checkScanCC(t, c.name, c.cc, 2)
	}
	for _, cc := range [][]float64{{nan}, {math.Inf(-1), nan, math.Inf(-1)}, {nan, nan, nan, nan, nan, nan, nan}} {
		m := (len(cc) + 1) / 2
		if d, lag := scanCC(cc[:m-1], cc[m-1:], 2); lag != 0 || !math.IsInf(d, 1) {
			t.Errorf("scanCC on %v = (%v, %d), want (+Inf, 0)", cc, d, lag)
		}
	}
}

// FuzzScanCC checks the four-lane scan against the one-lane reference on
// raw float64 bit patterns, NaN and ±Inf included: 8 bytes per value,
// little endian, the first m-1 values the negative lags and the next m
// the non-negative ones. Seeds: testdata/fuzz/FuzzScanCC (gencorpus).
func FuzzScanCC(f *testing.F) {
	f.Add(make([]byte, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		cc := make([]float64, len(data)/8)
		for i := range cc {
			cc[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if len(cc) == 0 {
			return
		}
		checkScanCC(t, "fuzz input", cc[:2*((len(cc)+1)/2)-1], 1.5)
	})
}

// BenchmarkScanCC times the lag scan against the one-lane reference on
// real cross-correlations of random-walk series.
func BenchmarkScanCC(b *testing.B) {
	for _, m := range []int{64, 256, 512} {
		rng := rand.New(rand.NewSource(int64(m)))
		data := make([][]float64, 16)
		for i := range data {
			data[i] = ts.ZNormalize(randWalkSeries(m, rng))
		}
		batch := NewSBDBatch(data)
		sc := batch.Scratch()
		ccs := make([][]float64, len(data))
		for i := range ccs {
			batch.plan.CrossCorrelate(batch.spec[0], batch.spec[i], sc.cc, sc.work)
			ccs[i] = append([]float64(nil), sc.cc...)
		}
		l := batch.l
		for _, v := range []struct {
			name string
			scan func(neg, pos []float64, den float64) (float64, int)
		}{{"lanes", scanCC}, {"one-lane", scanCCOneLane}} {
			b.Run(fmt.Sprintf("%s/m=%d", v.name, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cc := ccs[i%len(ccs)]
					scanSink, _ = v.scan(cc[l-(m-1):], cc[:m], float64(m))
				}
			})
		}
	}
}

var scanSink float64

func randWalkSeries(m int, rng *rand.Rand) []float64 {
	x := make([]float64, m)
	v := 0.0
	for i := range x {
		v += rng.NormFloat64()
		x[i] = v
	}
	return x
}
