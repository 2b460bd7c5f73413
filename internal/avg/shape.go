package avg

import (
	"fmt"
	"math/bits"
	"sync"

	"kshape/internal/dist"
	"kshape/internal/linalg"
	"kshape/internal/obs"
	"kshape/internal/ts"
)

// ShapeExtraction computes the shape-based centroid of Algorithm 2:
//
//  1. align every series toward the reference ref with SBD;
//  2. z-normalize the aligned members and center each one, giving the
//     rows of A = X′Q with Q = I − (1/m)·11ᵀ;
//  3. take M = Qᵀ·X′ᵀX′·Q = AᵀA;
//  4. return the dominant eigenvector of M (the Rayleigh-quotient maximizer
//     of Equation 15), sign-corrected and z-normalized.
//
// When ref is nil or all zeros (the first k-Shape iteration), alignment is
// skipped (every series is its own alignment), matching the reference
// implementation's behaviour of aligning against a zero vector.
//
// The eigenvector's sign is ambiguous; we pick the orientation whose summed
// squared Euclidean distance to the z-normalized members is smaller, so the
// centroid correlates positively with the cluster.
//
// Every member must have the length of the first; a shorter or longer one
// panics with a message naming it.
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
	memberLength(cluster)
	// One spectrum cache over the members with ref as the query: n+1
	// forward transforms and n inverses, as in k-Shape's refinement step.
	q := dist.NewSBDBatch(cluster).Query(ref)
	shifts := make([]int, len(cluster))
	for i := range cluster {
		_, shifts[i] = q.Distance(i)
	}
	return ShapeExtractionShifted(cluster, shifts)
}

// ShapeExtractionAligned is ShapeExtraction for members that are already
// aligned to a common reference (steps 2-4 of Algorithm 2): every member
// enters at shift 0.
func ShapeExtractionAligned(aligned [][]float64) []float64 {
	return ShapeExtractionShifted(aligned, nil)
}

// ShapeExtractionShifted is steps 2-4 of Algorithm 2 on members[t]
// aligned by shifts[t] (ts.Shift's convention; nil means every shift is
// 0). Each member is shifted straight into its row of the pooled
// workspace, so no aligned copy is made and the returned centroid is the
// only allocation once the pool is warm. k-Shape's loop passes the shifts
// its assignment scan already found.
func ShapeExtractionShifted(members [][]float64, shifts []int) []float64 {
	if len(members) == 0 {
		return nil
	}
	m := memberLength(members)
	defer obs.StartPhase(obs.PhaseShapeExtract)()
	obs.Inc(obs.CounterShapeExtractions)
	pool := &shapePools[bits.Len(uint(m))]
	w, _ := pool.Get().(*shapeWork)
	if w == nil {
		w = new(shapeWork)
	}
	w.reset(len(members), m)
	cen := make([]float64, m)
	w.centroid(cen, members, shifts)
	pool.Put(w)
	return cen
}

// memberLength returns the common length of rows, panicking if a member
// differs from the first or the members are empty.
func memberLength(rows [][]float64) int {
	m := len(rows[0])
	if m == 0 {
		panic("avg: shape extraction of zero-length members")
	}
	for t, x := range rows {
		if len(x) != m {
			panic(fmt.Sprintf("avg: shape extraction member %d has length %d, want %d (the length of member 0)", t, len(x), m))
		}
	}
	return m
}

// shapePools holds the shape-extraction workspaces, one pool per size
// class bits.Len(m) of the series length, so a workspace is reused by
// calls of similar length and grown only for longer series or wider
// clusters.
var shapePools [bits.UintSize + 1]sync.Pool

// shapeWork is the workspace of one shape extraction: the eigensolver,
// whose factor A holds the centered members, and Σₜ zₜ over the
// z-normalized members for the sign test.
type shapeWork struct {
	gram linalg.Gram
	zsum []float64
}

// reset sizes w for n members of length m.
func (w *shapeWork) reset(n, m int) {
	w.gram.Reset(n, m)
	if cap(w.zsum) < m {
		w.zsum = make([]float64, m)
	}
	w.zsum = w.zsum[:m]
}

// centroid runs steps 2-4 of Algorithm 2 on rows shifted by shifts (nil:
// all 0), which w was reset for, and writes the centroid into cen. When
// the power iteration stops at its step cap, which happens when the two
// leading eigenvalues nearly tie, the exact eigenvector of the same
// matrix replaces its estimate.
func (w *shapeWork) centroid(cen []float64, rows [][]float64, shifts []int) {
	if !w.extract(cen, rows, shifts) {
		_, v := w.gram.Exact()
		w.orient(cen, v)
	}
}

// extract is centroid's allocation-free kernel: it writes the power
// iteration's centroid into cen and reports whether the iteration met its
// residual rule.
//
// Each member is shifted into its row of A, z-normalized there once, and
// then centered: shifting introduces zero padding that perturbs mean and
// variance, and Equation 14 assumes z-normalized x_i. The sign test needs
// only Σₜ zₜ: Σₜ‖zₜ + c‖² − Σₜ‖zₜ − c‖² = 4·(Σₜ zₜ)·c, so −c is the
// closer orientation exactly when (Σₜ zₜ)·c < 0.
//
//kshape:hotpath
func (w *shapeWork) extract(cen []float64, rows [][]float64, shifts []int) bool {
	zsum := w.zsum
	clear(zsum)
	for t, x := range rows {
		a := w.gram.Row(t)
		shift := 0
		if shifts != nil {
			shift = shifts[t]
		}
		ts.ShiftInto(a, x, shift)
		ts.ZNormalizeInPlace(a)
		for j, z := range a {
			zsum[j] += z
		}
		mu := ts.Mean(a)
		for j := range a {
			a[j] -= mu
		}
	}
	_, v, converged := w.gram.Dominant()
	w.orient(cen, v)
	return converged
}

// orient writes the unit eigenvector v into cen z-normalized, with the
// sign that correlates positively with the members' sum.
func (w *shapeWork) orient(cen, v []float64) {
	copy(cen, v)
	ts.ZNormalizeInPlace(cen)
	if ts.Dot(w.zsum, cen) < 0 {
		for i := range cen {
			cen[i] = -cen[i]
		}
	}
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
