// Package linalg provides the dense linear algebra the k-Shape reproduction
// needs: symmetric matrices, a power-iteration dominant eigensolver (used by shape extraction, Equation 15 of the paper), a
// shifted power iteration for smallest eigenvectors (used by the KSC
// centroid), and a full symmetric eigendecomposition via Householder
// tridiagonalization plus implicit-shift QL (used by spectral clustering).
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

// MulVec computes dst = S·x. dst and x must have length N and must not alias.
func (s *Sym) MulVec(dst, x []float64) {
	n := s.N
	if len(dst) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: %d, %d vs %d", len(dst), len(x), n))
	}
	for i := range dst {
		dst[i] = dot(s.Row(i), x)
	}
}

// GramAddOuter accumulates S += x·xᵀ. Used to build S = Σ xᵢxᵢᵀ in shape
// extraction without materializing the data matrix product.
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
