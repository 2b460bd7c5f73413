package dist_test

import (
	"math"
	"math/rand"
	"testing"

	"kshape/internal/dist"
	"kshape/internal/testkit"
	"kshape/internal/ts"
)

// TestNearestLowerBoundBelowSBD checks the bound Nearest prunes with on
// the degenerate-heavy input of the sbdbatch/lb-prune-exact oracle: for
// every pair with a non-NaN SBD, LB ≤ SBD + NearestMargin.
func TestNearestLowerBoundBelowSBD(t *testing.T) {
	pairs, bounded := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		refs, queries := testkit.NewGen(seed).NearestCase()
		b := dist.NewSBDBatch(refs)
		for qi, q := range queries {
			query := b.Query(q)
			for i, lb := range query.LowerBounds() {
				d, _ := query.Distance(i)
				if math.IsNaN(d) {
					continue
				}
				pairs++
				if !math.IsInf(lb, -1) {
					bounded++
				}
				if lb > d+dist.NearestMargin {
					t.Fatalf("seed %d query %d series %d (m=%d): bound %v above SBD %v",
						seed, qi, i, len(q), lb, d)
				}
			}
		}
	}
	if bounded < pairs/2 {
		t.Fatalf("only %d of %d pairs got a finite bound", bounded, pairs)
	}
}

// TestNearestTieGoesToSmallerIndex: the same reference at indices 2 and 5
// (and a power-of-two scaling of it, whose spectrum, norm, bound and SBD
// are bit-identical up to that exact factor, at index 7) ties exactly, and
// Nearest must return the smaller index, as the unpruned scan does.
func TestNearestTieGoesToSmallerIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	refs := make([][]float64, 8)
	for i := range refs {
		refs[i] = ts.ZNormalize(randWalk(64, rng))
	}
	copy(refs[5], refs[2])
	refs[7] = ts.Scale(refs[2], 2)
	b := dist.NewSBDBatch(refs)
	for _, q := range [][]float64{refs[2], ts.Shift(refs[2], 3)} {
		query := b.Query(q)
		d2, _ := query.Distance(2)
		for _, i := range []int{5, 7} {
			if d, _ := query.Distance(i); math.Float64bits(d) != math.Float64bits(d2) {
				t.Fatalf("SBD to series %d is %v, to series 2 %v: not an exact tie", i, d, d2)
			}
		}
		idx, d := query.Nearest()
		if idx != 2 {
			t.Fatalf("Nearest = %d (SBD %v), want 2 among the exact ties 2, 5, 7", idx, d)
		}
	}
}

func randWalk(m int, rng *rand.Rand) []float64 {
	x := make([]float64, m)
	v := 0.0
	for i := range x {
		v += rng.NormFloat64()
		x[i] = v
	}
	return x
}
