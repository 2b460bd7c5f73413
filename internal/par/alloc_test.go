package par

import (
	"math/rand"
	"testing"
)

// TestReductionInnerLoopsAllocFree pins the extracted //kshape:hotpath
// reduction kernels — the serial/per-chunk inner loops behind SumInt and
// MinIndex — at zero allocations. The caller-supplied
// term/score closures are hoisted outside the measured region, exactly
// as the exported wrappers hoist them outside their loops.
func TestReductionInnerLoopsAllocFree(t *testing.T) {
	vals := make([]float64, 512)
	rng := rand.New(rand.NewSource(5))
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	term := func(i int) float64 { return vals[i] }
	intTerm := func(i int) int { return i * i }
	var isink int
	var csink extremeCandidate
	if a := testing.AllocsPerRun(100, func() {
		isink = sumIntRange(0, len(vals), intTerm)
		csink = scanExtreme(0, len(vals), term)
	}); a != 0 {
		t.Errorf("reduction inner loops allocate %v per run, want 0", a)
	}
	_, _ = isink, csink
}
