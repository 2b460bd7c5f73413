package core

import (
	"math"
	"math/rand"
	"testing"

	"kshape/internal/dist"
	"kshape/internal/ts"
)

// TestAssignmentScanAllocFree pins the per-series assignment loop
// (assignSeries: a bound row decayed by the drifts, then a dist.Scan over
// the centroid queries with the head-tail filter, in top-2 and
// nearest-only mode) and the refinement helpers (the drift measure and
// the fixed-point tests) at zero allocations: the queries, scratch, head
// and bound rows are the caller's, so iterating the k-Shape loop does not
// grow the heap. The drifts exceed every distance, so no row prunes and
// every centroid but the own one meets the head-tail bound.
func TestAssignmentScanAllocFree(t *testing.T) {
	data, _ := twoClassShiftedData(12, 64, rand.New(rand.NewSource(22)))
	centroids := [][]float64{ts.ZNormalize(data[0]), ts.ZNormalize(data[1]), ts.ZNormalize(data[13])}
	k := len(centroids)
	runnerUp := make([]float64, len(data))
	for i := range runnerUp {
		runnerUp[i] = math.NaN()
	}
	runnerUp[0] = 0 // series 0 is in the silhouette sample
	r := &loop{data: data, k: k, m: len(data[0]), workers: 1, labels: make([]int, len(data)),
		centroids: centroids, assignDist: make([]float64, len(data)), drift: []float64{3, 3, 3},
		runnerUp: runnerUp}
	s := newKShapeStep(r).(*kshapeStep)
	for j := range centroids {
		s.refreshQuery(j)
	}
	sc := s.batch.Scratch()
	var scan dist.Scan
	var head dist.SeriesHead
	if n := testing.AllocsPerRun(50, func() {
		s.assignSeries(0, &scan, &head, sc) // top-2
		s.assignSeries(1, &scan, &head, sc)
	}); n != 0 {
		t.Errorf("the assignment scan allocates %v per run, want 0", n)
	}
	if scan.Pruned == 0 {
		t.Error("the head-tail bound skipped no centroid; the filtered path was not exercised")
	}
	if n := testing.AllocsPerRun(50, func() {
		unitDrift(data[0], data[1])
		equalFloatBits(data[0], data[1])
		isAllZero(data[2])
	}); n != 0 {
		t.Errorf("refinement helpers allocate %v per run, want 0", n)
	}
}
