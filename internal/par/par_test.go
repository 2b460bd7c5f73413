package par

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// workerCounts are the degrees of parallelism every determinism test
// sweeps; 8 deliberately exceeds most CI machines' core counts so that
// oversubscription is covered too.
var workerCounts = []int{1, 2, 3, 8}

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.NumCPU() {
		t.Errorf("Resolve(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Resolve(-3); got != runtime.NumCPU() {
		t.Errorf("Resolve(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	for _, w := range []int{1, 2, 64} {
		if got := Resolve(w); got != w {
			t.Errorf("Resolve(%d) = %d", w, got)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1023} {
		for _, w := range workerCounts {
			hits := make([]int32, n)
			For(w, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestForChunksPartition(t *testing.T) {
	for _, n := range []int{1, 5, 16, 97} {
		for _, w := range workerCounts {
			hits := make([]int32, n)
			ForChunks(w, n, func(lo, hi int) {
				if lo >= hi {
					t.Errorf("empty chunk [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestSumInt(t *testing.T) {
	n := 5000
	want := n * (n - 1) / 2
	for _, w := range workerCounts {
		if got := SumInt(w, n, func(i int) int { return i }); got != want {
			t.Errorf("workers=%d: SumInt = %d, want %d", w, got, want)
		}
	}
	if got := SumInt(4, 0, func(int) int { return 1 }); got != 0 {
		t.Errorf("empty SumInt = %d", got)
	}
}

func TestMinIndexMatchesSerialScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		vals := make([]float64, n)
		for i := range vals {
			// Coarse quantization forces frequent exact ties; scattered
			// NaNs must never be selected, whatever chunk they land in.
			vals[i] = float64(rng.Intn(8))
			if rng.Intn(10) == 0 {
				vals[i] = math.NaN()
			}
		}
		wantIdx, wantVal := -1, math.Inf(1)
		for i, v := range vals {
			if v < wantVal {
				wantIdx, wantVal = i, v
			}
		}
		for _, w := range workerCounts {
			gotIdx, gotVal := MinIndex(w, n, func(i int) float64 { return vals[i] })
			if gotIdx != wantIdx || gotVal != wantVal {
				t.Fatalf("workers=%d n=%d: MinIndex = (%d, %v), want (%d, %v)",
					w, n, gotIdx, gotVal, wantIdx, wantVal)
			}
		}
	}
}

func TestMinIndexEdgeCases(t *testing.T) {
	if idx, val := MinIndex(4, 0, func(int) float64 { return 0 }); idx != -1 || !math.IsInf(val, 1) {
		t.Errorf("empty MinIndex = (%d, %v)", idx, val)
	}
	// NaN scores are never selected.
	vals := []float64{math.NaN(), 3, math.NaN(), 2, math.NaN()}
	for _, w := range workerCounts {
		idx, val := MinIndex(w, len(vals), func(i int) float64 { return vals[i] })
		if idx != 3 || val != 2 {
			t.Errorf("workers=%d: MinIndex over NaNs = (%d, %v), want (3, 2)", w, idx, val)
		}
	}
	// All-NaN input selects nothing.
	allNaN := []float64{math.NaN(), math.NaN()}
	if idx, _ := MinIndex(2, len(allNaN), func(i int) float64 { return allNaN[i] }); idx != -1 {
		t.Errorf("all-NaN MinIndex idx = %d, want -1", idx)
	}
	// All-+Inf input selects nothing (matches a serial strict-< scan
	// starting from +Inf).
	if idx, _ := MinIndex(2, 3, func(int) float64 { return math.Inf(1) }); idx != -1 {
		t.Errorf("all-Inf MinIndex idx = %d, want -1", idx)
	}
}

// TestForConcurrentDisjointWrites exercises the documented usage contract
// (each iteration writes only its own slot) under the race detector.
func TestForConcurrentDisjointWrites(t *testing.T) {
	n := 4096
	out := make([]float64, n)
	For(8, n, func(i int) { out[i] = float64(i) * 0.5 })
	for i, v := range out {
		if v != float64(i)*0.5 {
			t.Fatalf("out[%d] = %v", i, v)
		}
	}
}
