package linalg

import (
	"math"

	"kshape/internal/obs"
)

// Gram finds the dominant eigenpair of the m×m positive semidefinite
// matrix M = AᵀA of a row-major n×m factor A, the form Equation 15's
// M = Qᵀ·X′ᵀX′·Q takes when A = X′Q holds the centered members. It keeps
// every buffer the solve needs, so a Gram reused for the same or smaller
// shapes allocates nothing.
//
// The power iteration runs on the smaller of the two Gram matrices of A:
// M itself when n ≥ m, or else the n×n K = AAᵀ, which has the same
// nonzero spectrum. If Ku = λu, then v = Aᵀu/‖Aᵀu‖ satisfies Mv = λv, so
// one product with Aᵀ maps K's eigenvector back. Either way the cost is
// O(p²·q) to form the matrix and O(p²) per step, for p = min(n, m) and
// q = max(n, m).
type Gram struct {
	n, m    int
	a       []float64 // n×m factor A, row-major
	s       Sym       // K (n < m) or M (n ≥ m)
	u, next []float64 // min(n, m): the power iterates
	v       []float64 // m: the eigenvector of M, mapped back from K's
}

// Reset sizes g for an n×m factor, growing its buffers only when they are
// too small. The caller then fills every row of A through Row before
// calling Dominant.
func (g *Gram) Reset(n, m int) {
	g.n, g.m = n, m
	p := min(n, m)
	g.a = grow(g.a, n*m)
	g.s = Sym{N: p, Data: grow(g.s.Data, p*p)}
	g.u = grow(g.u, p)
	g.next = grow(g.next, p)
	g.v = grow(g.v, m)
}

func grow(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// Row returns row t of A, aliasing g's storage.
func (g *Gram) Row(t int) []float64 { return g.a[t*g.m : (t+1)*g.m] }

// Dominant returns the largest eigenvalue of M = AᵀA and a unit
// eigenvector, by power iteration from a deterministic start vector (the
// row of the iterated matrix with the largest norm), which always has a
// component along the dominant eigenvector unless A is zero; then the
// eigenvalue is 0 and the vector e₁, since any unit vector is an
// eigenvector. The start vector depends on A alone, so equal factors
// give bit-identical results. converged is false when the iteration
// stopped at its step cap before its residual rule held (λ₂/λ₁ near 1);
// Exact then gives the exact pair. The vector aliases g's storage and is
// valid until g is next used.
func (g *Gram) Dominant() (lambda float64, v []float64, converged bool) {
	if g.n < g.m {
		g.formOuter()
	} else {
		g.formDense()
	}
	if !g.seed() {
		clear(g.v)
		g.v[0] = 1
		return 0, g.v, true
	}
	lambda, converged = g.iterate()
	return lambda, g.eigenvector(), converged
}

// Exact returns the dominant eigenpair of M from EigenDecompose of the
// matrix the preceding Dominant call formed, for when its power
// iteration did not converge. It allocates, unlike Dominant. The vector
// aliases g's storage and is valid until g is next used.
func (g *Gram) Exact() (float64, []float64) {
	vals, vecs := EigenDecompose(&g.s)
	top := len(vals) - 1
	copy(g.u, vecs[top])
	return vals[top], g.eigenvector()
}

// eigenvector returns M's unit eigenvector for the iterated matrix's
// eigenvector in g.u: u itself when g iterates on M, or Aᵀu normalized
// when it iterates on K.
func (g *Gram) eigenvector() []float64 {
	if g.n >= g.m {
		return g.u
	}
	g.mulT(g.v, g.u)
	normalize(g.v)
	return g.v
}

// formOuter fills K = AAᵀ: entry (s, t) is the dot product of rows s and
// t of A.
func (g *Gram) formOuter() {
	n, k := g.n, g.s.Data
	for s := 0; s < n; s++ {
		as := g.Row(s)
		for t := s; t < n; t++ {
			d := dot(as, g.Row(t))
			k[s*n+t], k[t*n+s] = d, d
		}
	}
}

// formDense accumulates M = Σₜ aₜaₜᵀ over the upper triangle, four rows
// of A per pass over M, and mirrors it into the lower one.
func (g *Gram) formDense() {
	m, d := g.m, g.s.Data
	clear(d)
	t := 0
	for ; t+3 < g.n; t += 4 {
		r0, r1, r2, r3 := g.Row(t), g.Row(t+1), g.Row(t+2), g.Row(t+3)
		for i := range r0 {
			a0, a1, a2, a3 := r0[i], r1[i], r2[i], r3[i]
			di := d[i*m+i : (i+1)*m]
			x0, x1, x2, x3 := r0[i:], r1[i:], r2[i:], r3[i:]
			x0, x1, x2, x3 = x0[:len(di)], x1[:len(di)], x2[:len(di)], x3[:len(di)]
			for j := range di {
				di[j] += (a0*x0[j] + a1*x1[j]) + (a2*x2[j] + a3*x3[j])
			}
		}
	}
	for ; t < g.n; t++ {
		row := g.Row(t)
		for i, ai := range row {
			di := d[i*m+i : (i+1)*m]
			x := row[i:]
			x = x[:len(di)]
			for j := range di {
				di[j] += ai * x[j]
			}
		}
	}
	for i := 1; i < m; i++ {
		for j := 0; j < i; j++ {
			d[i*m+j] = d[j*m+i]
		}
	}
}

// seed copies the row of the iterated matrix with the largest norm into
// g.u and normalizes it, which always has a component along the dominant
// eigenvector unless the matrix is zero. It reports false for a zero
// matrix.
func (g *Gram) seed() bool {
	s := &g.s
	bestNorm := -1.0
	for i := 0; i < s.N; i++ {
		nrm := 0.0
		for _, x := range s.Row(i) {
			nrm += x * x
		}
		if nrm > bestNorm {
			bestNorm = nrm
			copy(g.u, s.Row(i))
		}
	}
	if bestNorm <= 0 {
		return false
	}
	normalize(g.u)
	return true
}

// mulT computes dst = Aᵀ·y for y of length n.
func (g *Gram) mulT(dst, y []float64) {
	clear(dst)
	for t, yt := range y {
		row := g.Row(t)[:len(dst)]
		for j := range dst {
			dst[j] += yt * row[j]
		}
	}
}

// iterate runs the power iteration from the unit start vector in g.u,
// leaving the eigenvector estimate in g.u, and returns its eigenvalue,
// the Rayleigh quotient λ = uᵀSu. It stops when the relative residual
// ‖Su − λu‖ ≤ powerTol·λ, which the step's own product Su gives without
// another one, or after powerMaxIter steps; converged reports which. An
// iterate in the null space has residual 0 and stops with eigenvalue 0.
func (g *Gram) iterate() (lambda float64, converged bool) {
	u, next := g.u, g.next
	iters := 0
	for iters < powerMaxIter {
		iters++
		g.s.MulVec(next, u)
		lambda = dot(u, next)
		res := 0.0
		for i, x := range next {
			d := x - lambda*u[i]
			res += d * d
		}
		if math.Sqrt(res) <= powerTol*lambda {
			converged = true
			break
		}
		normalize(next)
		u, next = next, u
	}
	g.u, g.next = u, next
	obs.Add(obs.CounterEigenIterations, int64(iters))
	return lambda, converged
}
