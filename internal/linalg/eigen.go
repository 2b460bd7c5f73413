package linalg

import (
	"fmt"
	"math"

	"kshape/internal/obs"
)

// Power-iteration parameters: Gram.Dominant stops once the relative
// residual ‖Su − λu‖/λ is at most powerTol, which bounds the angle to the
// dominant eigenvector by about powerTol·λ₁/(λ₁ − λ₂). Rounding in one
// matrix-vector product stays well below powerTol at the sizes shape
// extraction sees. powerMaxIter caps the steps when λ₂/λ₁ is near 1, and
// Gram.Exact then takes the pair from EigenDecompose instead.
const (
	powerMaxIter = 1000
	powerTol     = 1e-12
)

// SmallestEigen returns the smallest eigenvalue and a corresponding unit
// eigenvector of symmetric s. This is what the KSC centroid computation
// needs (the minimizer of the normalized residual). Spectral shifts plus
// power iteration converge too slowly when the bottom eigenvalues cluster,
// so we use the full tridiagonal decomposition: the matrices involved are
// m×m for time-series length m, which is small by the paper's own argument
// (m ≪ n).
func SmallestEigen(s *Sym) (float64, []float64) {
	vals, vecs := EigenDecompose(s)
	return vals[0], vecs[0]
}

// dot returns a·b over len(a) elements, summed in four interleaved
// partial sums so consecutive additions do not wait on each other.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// EigenDecompose computes the full eigendecomposition of symmetric s,
// returning eigenvalues in ascending order with matching unit eigenvectors
// (vecs[i] pairs with vals[i]). It uses Householder tridiagonalization
// followed by the implicit-shift QL algorithm — the classic tred2/tql2
// pair — which is O(n³) with a small constant and numerically robust.
func EigenDecompose(s *Sym) (vals []float64, vecs [][]float64) {
	obs.Inc(obs.CounterEigenDecompositions)
	n := s.N
	a := make([][]float64, n) // working copy; becomes the eigenvector matrix
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		copy(a[i], s.Row(i))
	}
	d := make([]float64, n) // diagonal
	e := make([]float64, n) // off-diagonal
	tred2(a, d, e)
	if err := tql2(a, d, e); err != nil {
		panic(err)
	}
	// tql2 leaves eigenvalues in d (ascending after our sort) and
	// eigenvectors in columns of a.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Sort ascending by eigenvalue.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && d[idx[j]] < d[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	vals = make([]float64, n)
	vecs = make([][]float64, n)
	for r, k := range idx {
		vals[r] = d[k]
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			v[i] = a[i][k]
		}
		vecs[r] = v
	}
	return vals, vecs
}

// tred2 reduces a real symmetric matrix (in a) to tridiagonal form using
// Householder reflections, accumulating the orthogonal transformation in a.
// On return d holds the diagonal and e the subdiagonal (e[0] unused).
// Adapted from the EISPACK routine TRED2.
func tred2(a [][]float64, d, e []float64) {
	n := len(a)
	for i := n - 1; i > 0; i-- {
		l := i - 1
		h, scale := 0.0, 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(a[i][k])
			}
			//lint:ignore floatcmp exact zero-scale guard mirroring the EISPACK tred2 reference
			if scale == 0 {
				e[i] = a[i][l]
			} else {
				for k := 0; k <= l; k++ {
					a[i][k] /= scale
					h += a[i][k] * a[i][k]
				}
				f := a[i][l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				a[i][l] = f - g
				f = 0.0
				for j := 0; j <= l; j++ {
					a[j][i] = a[i][j] / h
					g = 0.0
					for k := 0; k <= j; k++ {
						g += a[j][k] * a[i][k]
					}
					for k := j + 1; k <= l; k++ {
						g += a[k][j] * a[i][k]
					}
					e[j] = g / h
					f += e[j] * a[i][j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = a[i][j]
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						a[j][k] -= f*e[k] + g*a[i][k]
					}
				}
			}
		} else {
			e[i] = a[i][l]
		}
		d[i] = h
	}
	d[0] = 0.0
	e[0] = 0.0
	for i := 0; i < n; i++ {
		l := i - 1
		//lint:ignore floatcmp exact zero test mirroring the EISPACK tred2 reference
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				g := 0.0
				for k := 0; k <= l; k++ {
					g += a[i][k] * a[k][j]
				}
				for k := 0; k <= l; k++ {
					a[k][j] -= g * a[k][i]
				}
			}
		}
		d[i] = a[i][i]
		a[i][i] = 1.0
		for j := 0; j <= l; j++ {
			a[j][i] = 0.0
			a[i][j] = 0.0
		}
	}
}

// tql2 finds the eigenvalues and eigenvectors of a symmetric tridiagonal
// matrix by the implicit-shift QL method, accumulating eigenvectors into a
// (which must hold the tred2 transformation on entry). Adapted from the
// EISPACK routine TQL2.
func tql2(a [][]float64, d, e []float64) error {
	n := len(a)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0.0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= math.SmallestNonzeroFloat64*dd || math.Abs(e[m]) <= 1e-15*dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 50 {
				return fmt.Errorf("linalg: tql2 failed to converge at eigenvalue %d", l)
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			sg := r
			if g < 0 {
				sg = -r
			}
			g = d[m] - d[l] + e[l]/(g+sg)
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				//lint:ignore floatcmp exact zero off-diagonal test mirroring the EISPACK tql2 reference
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				for k := 0; k < n; k++ {
					f = a[k][i+1]
					a[k][i+1] = s*a[k][i] + c*f
					a[k][i] = c*a[k][i] - s*f
				}
			}
			//lint:ignore floatcmp exact zero off-diagonal test mirroring the EISPACK tql2 reference
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}
