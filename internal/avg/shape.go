package avg

import (
	"kshape/internal/dist"
	"kshape/internal/linalg"
	"kshape/internal/obs"
	"kshape/internal/ts"
)

// ShapeExtraction computes the shape-based centroid of Algorithm 2:
//
//  1. align every series toward the reference ref with SBD;
//  2. form S = X′ᵀ·X′ over the aligned series;
//  3. project with Q = I − (1/m)·11ᵀ: M = Qᵀ·S·Q;
//  4. return the dominant eigenvector of M (the Rayleigh-quotient maximizer
//     of Equation 15), sign-corrected and z-normalized.
//
// When ref is nil or all zeros (the first k-Shape iteration), alignment is
// skipped (every series is its own alignment), matching the reference
// implementation's behaviour of aligning against a zero vector.
//
// The eigenvector's sign is ambiguous; we pick the orientation whose summed
// squared Euclidean distance to the aligned members is smaller, so the
// centroid correlates positively with the cluster.
func ShapeExtraction(cluster [][]float64, ref []float64) []float64 {
	if len(cluster) == 0 {
		if ref == nil {
			return nil
		}
		return make([]float64, len(ref))
	}
	if ref == nil || isAllZero(ref) {
		return ShapeExtractionAligned(cluster)
	}
	// One spectrum cache over the members with ref as the query: n+1
	// forward transforms and n inverses, as in k-Shape's refinement step.
	q := dist.NewSBDBatch(cluster).Query(ref)
	aligned := make([][]float64, len(cluster))
	for i, x := range cluster {
		_, shift := q.Distance(i)
		aligned[i] = ts.Shift(x, shift)
	}
	return ShapeExtractionAligned(aligned)
}

// ShapeExtractionAligned is ShapeExtraction for members that are already
// aligned to a common reference (steps 2-4 of Algorithm 2). k-Shape's
// optimized inner loop uses it with batched-FFT alignment.
func ShapeExtractionAligned(aligned [][]float64) []float64 {
	if len(aligned) == 0 {
		return nil
	}
	defer obs.StartPhase(obs.PhaseShapeExtract)()
	obs.Inc(obs.CounterShapeExtractions)
	m := len(aligned[0])
	s := linalg.NewSym(m)
	for _, a := range aligned {
		// Z-normalize aligned members before the Gram accumulation: shifting
		// introduces zero padding that perturbs mean and variance, and
		// Equation 14 assumes z-normalized x_i.
		s.GramAddOuter(ts.ZNormalize(a))
	}
	s.CenterProject()
	_, v := linalg.DominantEigen(s)
	// Resolve the sign ambiguity: compare sum of squared distances of ±v
	// (z-normalized) to the aligned members.
	cen := ts.ZNormalize(v)
	neg := make([]float64, m)
	for i, x := range cen {
		neg[i] = -x
	}
	if sumSqED(aligned, neg) < sumSqED(aligned, cen) {
		cen = neg
	}
	return cen
}

func sumSqED(cluster [][]float64, c []float64) float64 {
	total := 0.0
	for _, x := range cluster {
		total += dist.SquaredED(ts.ZNormalize(x), c)
	}
	return total
}

func isAllZero(x []float64) bool {
	for _, v := range x {
		//lint:ignore floatcmp exact all-zero test of a degenerate centroid
		if v != 0 {
			return false
		}
	}
	return true
}

// ShapeAverager is the Averager wrapping ShapeExtraction (used by k-Shape).
type ShapeAverager struct{}

// Name implements Averager.
func (ShapeAverager) Name() string { return "ShapeExtraction" }

// Average implements Averager.
func (ShapeAverager) Average(cluster [][]float64, ref []float64) []float64 {
	return ShapeExtraction(cluster, ref)
}
