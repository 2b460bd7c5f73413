package avg

import (
	"math"

	"kshape/internal/linalg"
	"kshape/internal/ts"
)

// KSCDistance computes the K-Spectral Centroid distance of Yang & Leskovec
// (referenced as KSC in Sections 2.4-2.5 of the k-Shape paper):
//
//	d(x, y) = min_{α, q} ‖x − α·y(q)‖ / ‖x‖
//
// minimizing jointly over an amplitude coefficient α (closed form per shift)
// and an integer shift q of y. The shift search is exhaustive over
// q ∈ [−m+1, m−1] — the measure has no FFT shortcut because the optimal α
// changes with the shift, which is exactly why KSC is orders of magnitude
// slower than SBD in Table 3.
//
// It returns the distance and the aligned, optimally scaled copy of y.
func KSCDistance(x, y []float64) (float64, []float64) {
	m := len(x)
	if m == 0 {
		return 0, nil
	}
	nx := ts.Norm(x)
	//lint:ignore floatcmp exact zero-norm guard before dividing by it
	if nx == 0 {
		// Degenerate query: define the distance as 1 (full residual), with y
		// unshifted, mirroring the SBD degenerate-input convention.
		return 1, append([]float64(nil), y...)
	}
	best := math.Inf(1)
	bestShift := 0
	bestAlpha := 0.0
	for q := -(m - 1); q <= m-1; q++ {
		shifted := ts.Shift(y, q)
		den := ts.Dot(shifted, shifted)
		var alpha float64
		if den > 0 {
			alpha = ts.Dot(x, shifted) / den
		}
		ss := 0.0
		for i := range x {
			d := x[i] - alpha*shifted[i]
			ss += d * d
		}
		if d := math.Sqrt(ss) / nx; d < best {
			best, bestShift, bestAlpha = d, q, alpha
		}
	}
	aligned := ts.Shift(y, bestShift)
	for i := range aligned {
		aligned[i] *= bestAlpha
	}
	return best, aligned
}

// KSCCentroid computes the KSC cluster centroid: after aligning and scaling
// every member toward ref, the centroid is the minimizer of
//
//	Σ_i ‖x_i − α_i μ‖² / ‖x_i‖²
//
// which reduces to the eigenvector of the smallest eigenvalue of
// M = Σ_i (I − x̂_i·x̂_iᵀ) for unit-normalized aligned members x̂_i
// (the matrix-decomposition centroid of Section 2.5). The result is
// sign-corrected and z-normalized for use alongside the other centroids.
func KSCCentroid(cluster [][]float64, ref []float64) []float64 {
	if len(cluster) == 0 {
		if ref == nil {
			return nil
		}
		return make([]float64, len(ref))
	}
	m := len(cluster[0])
	refIsZero := ref == nil || isAllZero(ref)
	msum := linalg.NewSym(m)
	// M = n·I − Σ x̂ x̂ᵀ
	gram := linalg.NewSym(m)
	n := 0
	for _, x := range cluster {
		var a []float64
		if refIsZero {
			a = x
		} else {
			_, a = KSCDistance(ref, x)
		}
		nrm := ts.Norm(a)
		//lint:ignore floatcmp exact zero-norm guard before dividing by it
		if nrm == 0 {
			continue
		}
		unit := make([]float64, m)
		for i, v := range a {
			unit[i] = v / nrm
		}
		gram.GramAddOuter(unit)
		n++
	}
	if n == 0 {
		return make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			v := -gram.At(i, j)
			if i == j {
				v += float64(n)
			}
			msum.Data[i*m+j] = v
		}
	}
	_, v := linalg.SmallestEigen(msum)
	cen := ts.ZNormalize(v)
	// Sign correction: the centroid should correlate positively with the
	// cluster sum.
	total := make([]float64, m)
	for _, x := range cluster {
		for i, xv := range x {
			total[i] += xv
		}
	}
	if ts.Dot(cen, total) < 0 {
		for i := range cen {
			cen[i] = -cen[i]
		}
	}
	return cen
}
