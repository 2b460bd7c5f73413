package core

import (
	"math/rand"
	"testing"

	"kshape/internal/dist"
	"kshape/internal/ts"
)

// TestAssignmentScanAllocFree pins the per-series assignment inner loop
// (scanCentroids, in nearest-only and top-2 mode)
// and the refinement helpers (the drift measure and the fixed-point
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
	var j int
	if n := testing.AllocsPerRun(50, func() {
		_, _, j, _, _ = scanCentroids(queries, sc, 0, 0, lb[:k], drift, true)
		_, _, _, _, _ = scanCentroids(queries, sc, 1, j, lb[k:], drift, false)
	}); n != 0 {
		t.Errorf("scanCentroids allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		unitDrift(data[0], data[1])
		equalFloatBits(data[0], data[1])
		isAllZero(data[2])
	}); n != 0 {
		t.Errorf("refinement helpers allocate %v per run, want 0", n)
	}
}
