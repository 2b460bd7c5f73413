package dist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"kshape/internal/fft"
	"kshape/internal/obs"
	"kshape/internal/ts"
)

// naiveMaxNCCc is the NCCc maximum and its shift from the direct O(m²)
// correlation, with the degenerate convention spelled out.
func naiveMaxNCCc(x, y []float64) (float64, int) {
	den := ts.Norm(x) * ts.Norm(y)
	cc := fft.CrossCorrelateNaive(x, y)
	best, bestIdx := math.Inf(-1), 0
	for i, v := range cc {
		if den != 0 {
			v /= den
		} else {
			v = 0
		}
		if v > best {
			best, bestIdx = v, i
		}
	}
	return best, bestIdx - (len(x) - 1)
}

// TestSBDSharedPlanConcurrent runs every per-pair FFT path — SBD,
// SBDNoPow2, MaxNCC — from many goroutines at once over mixed lengths, so
// several goroutines build and read the same shared plans concurrently
// (run under -race). Every result must match the direct-correlation
// reference.
func TestSBDSharedPlanConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type pair struct {
		x, y         []float64
		wantD, wantV float64
		wantShift    int
	}
	var pairs []pair
	for _, m := range []int{1, 2, 3, 17, 128, 1000} {
		x, y := ts.ZNormalize(randSeries(m, rng)), ts.ZNormalize(randSeries(m, rng))
		v, s := naiveMaxNCCc(x, y)
		pairs = append(pairs, pair{x, y, 1 - v, v, s})
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*len(pairs)*3)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range pairs {
				p := pairs[(k+g)%len(pairs)]
				if d, _ := SBD(p.x, p.y); math.Abs(d-p.wantD) > 1e-9 {
					errs <- fmt.Sprintf("SBD m=%d: %v, want %v", len(p.x), d, p.wantD)
				}
				if d, _ := SBDNoPow2(p.x, p.y); math.Abs(d-p.wantD) > 1e-9 {
					errs <- fmt.Sprintf("SBDNoPow2 m=%d: %v, want %v", len(p.x), d, p.wantD)
				}
				if v, s := MaxNCC(p.x, p.y, NCCc); math.Abs(v-p.wantV) > 1e-9 || s != p.wantShift {
					errs <- fmt.Sprintf("MaxNCC m=%d: (%v, %d), want (%v, %d)", len(p.x), v, s, p.wantV, p.wantShift)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSBDMatchesBatchBitwise pins that the per-pair SBD and the batch
// engine run the same arithmetic on the same shared plan: distances and
// shifts agree bit for bit.
func TestSBDMatchesBatchBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, m := range []int{1, 5, 64, 129} {
		data := make([][]float64, 6)
		for i := range data {
			data[i] = ts.ZNormalize(randSeries(m, rng))
		}
		query := ts.ZNormalize(randSeries(m, rng))
		q := NewSBDBatch(data).Query(query)
		for i, x := range data {
			gotD, gotS := q.Distance(i)
			wantD, aligned := SBD(query, x)
			if math.Float64bits(gotD) != math.Float64bits(wantD) || !slices.Equal(ts.Shift(x, gotS), aligned) {
				t.Fatalf("m=%d i=%d: batch (%v, %d) vs per-pair %v", m, i, gotD, gotS, wantD)
			}
		}
	}
}

// TestSBDKernelCounters pins the per-call kernel counts of the per-pair
// entry points: each FFT variant is two forward and one inverse real
// transform, the naive variant none, and a degenerate (zero-norm) pair
// is settled by the convention before any transform.
func TestSBDKernelCounters(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	rng := rand.New(rand.NewSource(25))
	x, y := ts.ZNormalize(randSeries(40, rng)), ts.ZNormalize(randSeries(40, rng))
	zero := make([]float64, 40)
	for _, c := range []struct {
		name string
		call func()
		want obs.Counters
	}{
		{"SBD", func() { SBD(x, y) }, obs.Counters{FFT: 2, IFFT: 1, SBD: 1}},
		{"SBDDist", func() { SBDDist(x, y) }, obs.Counters{FFT: 2, IFFT: 1, SBD: 1}},
		{"SBDNoPow2", func() { SBDNoPow2(x, y) }, obs.Counters{FFT: 2, IFFT: 1, SBD: 1}},
		{"SBDNoFFT", func() { SBDNoFFT(x, y) }, obs.Counters{SBD: 1}},
		{"MaxNCC", func() { MaxNCC(x, y, NCCc) }, obs.Counters{FFT: 2, IFFT: 1}},
		{"SBD-degenerate", func() { SBD(zero, y) }, obs.Counters{SBD: 1}},
	} {
		before := obs.ReadCounters()
		c.call()
		if got := obs.ReadCounters().Sub(before); got != c.want {
			t.Errorf("%s: counters %+v, want %+v", c.name, got, c.want)
		}
	}
}
