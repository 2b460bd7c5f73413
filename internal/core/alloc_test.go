package core

import (
	"math/rand"
	"testing"

	"kshape/internal/dist"
	"kshape/internal/ts"
)

// TestAssignmentScanAllocFree pins the per-series assignment inner loop
// (a bound row decayed by the drifts, then a dist.Scan over the centroid
// queries, in top-2 and nearest-only mode) and the refinement helpers (the drift measure and the fixed-point
// tests) at zero allocations: the queries, scratch and bound rows are the
// caller's, so iterating the k-Shape loop does not grow the heap.
func TestAssignmentScanAllocFree(t *testing.T) {
	data, _ := twoClassShiftedData(12, 64, rand.New(rand.NewSource(22)))
	batch := dist.NewSBDBatch(data)
	queries := []*dist.SBDQuery{
		batch.Query(ts.ZNormalize(data[0])),
		batch.Query(ts.ZNormalize(data[1])),
		batch.Query(ts.ZNormalize(data[13])),
	}
	sc := batch.Scratch()
	k := len(queries)
	lb := make([]float64, 2*k)
	drift := make([]float64, k)
	var scan dist.Scan
	own := 0
	if n := testing.AllocsPerRun(50, func() {
		for i := 0; i < 2; i++ {
			row := lb[i*k : (i+1)*k]
			for j, d := range drift {
				row[j] -= d
			}
			scan.Reset(row, own, i == 0)
			for j, ok := scan.Next(); ok; j, ok = scan.Next() {
				scan.Offer(queries[j].DistanceScratch(i, sc))
			}
			own, _, _, _ = scan.Result()
		}
	}); n != 0 {
		t.Errorf("the assignment scan allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		unitDrift(data[0], data[1])
		equalFloatBits(data[0], data[1])
		isAllZero(data[2])
	}); n != 0 {
		t.Errorf("refinement helpers allocate %v per run, want 0", n)
	}
}
