// Package linalg provides the dense linear algebra the k-Shape reproduction
// needs: symmetric matrices, a power-iteration dominant eigensolver on the
// smaller Gram matrix of a factor (Gram, used by shape extraction,
// Equation 15 of the paper), and a full symmetric eigendecomposition via
// Householder tridiagonalization plus implicit-shift QL (EigenDecompose,
// used by spectral clustering and, through SmallestEigen, by the KSC
// centroid).
package linalg

import (
	"fmt"
	"math"
)

// Sym is a dense symmetric n×n matrix stored fully (both triangles).
type Sym struct {
	N    int
	Data []float64 // row-major, len N*N
}

// NewSym allocates an n×n zero symmetric matrix.
func NewSym(n int) *Sym {
	if n <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimension %d", n))
	}
	return &Sym{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (s *Sym) At(i, j int) float64 { return s.Data[i*s.N+j] }

// Set sets elements (i, j) and (j, i) to v, preserving symmetry.
func (s *Sym) Set(i, j int, v float64) {
	s.Data[i*s.N+j] = v
	s.Data[j*s.N+i] = v
}

// Row returns row i as a slice aliasing the matrix storage.
func (s *Sym) Row(i int) []float64 { return s.Data[i*s.N : (i+1)*s.N] }

// Clone returns a deep copy of s.
func (s *Sym) Clone() *Sym {
	c := NewSym(s.N)
	copy(c.Data, s.Data)
	return c
}

// MulVec computes dst = S·x. dst and x must have length N and must not
// alias. Four rows go per pass over x, so the four outputs share each
// load of x.
func (s *Sym) MulVec(dst, x []float64) {
	n := s.N
	if len(dst) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: %d, %d vs %d", len(dst), len(x), n))
	}
	i := 0
	for ; i+3 < n; i += 4 {
		r0, r1, r2, r3 := s.Row(i), s.Row(i+1), s.Row(i+2), s.Row(i+3)
		r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < n; i++ {
		dst[i] = dot(s.Row(i), x)
	}
}

// GramAddOuter accumulates S += x·xᵀ. The KSC centroid and the test
// oracles' dense references build S = Σ xᵢxᵢᵀ with it.
func (s *Sym) GramAddOuter(x []float64) {
	n := s.N
	if len(x) != n {
		panic(fmt.Sprintf("linalg: GramAddOuter dimension mismatch: %d vs %d", len(x), n))
	}
	for i := 0; i < n; i++ {
		xi := x[i]
		//lint:ignore floatcmp exact zero-pivot guard
		if xi == 0 {
			continue
		}
		row := s.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			row[j] += xi * x[j]
		}
	}
}

// normalize scales x to unit L2 norm in place and returns the original norm.
func normalize(x []float64) float64 {
	ss := 0.0
	for _, v := range x {
		ss += v * v
	}
	nrm := math.Sqrt(ss)
	//lint:ignore floatcmp exact zero-norm guard before dividing by it
	if nrm == 0 {
		return 0
	}
	for i := range x {
		x[i] /= nrm
	}
	return nrm
}
