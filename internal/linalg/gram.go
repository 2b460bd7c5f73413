package linalg

import (
	"math"

	"kshape/internal/obs"
)

// Gram finds the dominant eigenpair of the m×m positive semidefinite
// matrix M = AᵀA of a row-major n×m factor A, the form Equation 15's
// M = Qᵀ·X′ᵀX′·Q takes when A = X′Q holds the centered members. It keeps
// every buffer the solve needs, so a Gram reused for the same or smaller
// shapes allocates nothing. M is applied in one of two orders:
//
//   - factored: M·x = Aᵀ(A·x), O(n·m) per power step, M never formed;
//   - dense: M accumulated once at O(n·m²), then O(m²) per power step.
//
// FactoredCheaper is the cost rule between them.
type Gram struct {
	n, m     int
	factored bool
	a        []float64 // n×m factor A, row-major
	dense    Sym       // m×m M, dense order only
	k        []float64 // n×n K = AAᵀ, factored order only
	ax       []float64 // n: A·x, and weights or a column of A while seeding
	v, next  []float64 // m: the power iterates
}

// FactoredCheaper reports whether M = AᵀA is cheaper to apply factored
// than to form densely for an n×m factor: 2n ≤ m. Factored, each power
// step costs 2·n·m against m² dense, and seeding costs O(n²·m) against the
// O(n·m²) dense accumulation, so the factored order wins while n is well
// below m and loses once the cluster is as wide as it is long.
func FactoredCheaper(n, m int) bool { return 2*n <= m }

// Reset sizes g for an n×m factor applied in the given order, growing its
// buffers only when they are too small. The caller then fills every row
// of A through Row before calling Dominant.
func (g *Gram) Reset(n, m int, factored bool) {
	g.n, g.m, g.factored = n, m, factored
	g.a = grow(g.a, n*m)
	g.ax = grow(g.ax, n)
	g.v = grow(g.v, m)
	g.next = grow(g.next, m)
	if factored {
		g.k = grow(g.k, n*n)
	} else {
		g.dense = Sym{N: m, Data: grow(g.dense.Data, m*m)}
	}
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
// row of M with the largest norm, or e₁ when M is zero), which always has
// a component along the dominant eigenvector unless M is zero. The vector
// aliases g's storage and is valid until g is next used.
func (g *Gram) Dominant() (float64, []float64) {
	if g.factored {
		return g.solve(g.seedFactored())
	}
	g.formDense()
	return g.solve(g.seedDense())
}

// solve runs the power iteration from the start vector in g.v, or, when
// seeding found M to be zero, returns eigenvalue 0 with e₁: any unit
// vector is then an eigenvector.
func (g *Gram) solve(seeded bool) (float64, []float64) {
	if !seeded {
		clear(g.v)
		g.v[0] = 1
		return 0, g.v
	}
	return g.iterate(), g.v
}

// formDense accumulates M = Σₜ aₜaₜᵀ over the upper triangle, four rows
// of A per pass over M, and mirrors it into the lower one.
func (g *Gram) formDense() {
	m, d := g.m, g.dense.Data
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

// seedDense copies the row of the dense matrix with the largest norm into
// g.v and normalizes it, which always has a component along the dominant
// eigenvector unless the matrix is zero. It reports false for a zero
// matrix.
func (g *Gram) seedDense() bool {
	s := &g.dense
	bestNorm := -1.0
	for i := 0; i < s.N; i++ {
		nrm := 0.0
		for _, x := range s.Row(i) {
			nrm += x * x
		}
		if nrm > bestNorm {
			bestNorm = nrm
			copy(g.v, s.Row(i))
		}
	}
	if bestNorm <= 0 {
		return false
	}
	normalize(g.v)
	return true
}

// seedFactored picks seedDense's start vector without forming M. Row i
// of M is M·eᵢ = Aᵀcᵢ for column cᵢ of A, so its squared norm is
// cᵢᵀ(AAᵀ)cᵢ = cᵢᵀKcᵢ = Σₛ A[s,i]·(Σₜ K[s,t]·A[t,i]). The n×n K prices
// every row of M at once: one pass over the upper triangle of K, each
// step an axpy over a row of A.
func (g *Gram) seedFactored() bool {
	n, k := g.n, g.k
	for s := 0; s < n; s++ {
		as := g.Row(s)
		for t := s; t < n; t++ {
			d := dot(as, g.Row(t))
			k[s*n+t], k[t*n+s] = d, d
		}
	}
	// nrm[i] = ‖M·eᵢ‖², folding K's symmetry into the weights w.
	nrm, w, y := g.next, g.ax, g.v
	clear(nrm)
	for s := 0; s < n; s++ {
		ws := w[:n-s]
		ws[0] = k[s*n+s]
		for t := s + 1; t < n; t++ {
			ws[t-s] = 2 * k[s*n+t]
		}
		g.mulT(y, ws, s)
		for i, x := range g.Row(s) {
			nrm[i] += x * y[i]
		}
	}
	bestNorm, best := -1.0, 0
	for i, x := range nrm {
		if x > bestNorm {
			bestNorm, best = x, i
		}
	}
	if bestNorm <= 0 {
		return false
	}
	// v₀ = M·e_best = Aᵀc_best.
	c := g.ax
	for t := range c {
		c[t] = g.a[t*g.m+best]
	}
	g.mulT(g.v, c, 0)
	normalize(g.v)
	return true
}

// mulT computes dst = Σₜ y[t]·A[first+t,:], which is Aᵀ·y for first 0
// and y of length n, four rows of A per pass over dst.
func (g *Gram) mulT(dst, y []float64, first int) {
	clear(dst)
	t := 0
	for ; t+3 < len(y); t += 4 {
		y0, y1, y2, y3 := y[t], y[t+1], y[t+2], y[t+3]
		r0, r1, r2, r3 := g.Row(first+t), g.Row(first+t+1), g.Row(first+t+2), g.Row(first+t+3)
		r0, r1, r2, r3 = r0[:len(dst)], r1[:len(dst)], r2[:len(dst)], r3[:len(dst)]
		for j := range dst {
			dst[j] += (y0*r0[j] + y1*r1[j]) + (y2*r2[j] + y3*r3[j])
		}
	}
	for ; t < len(y); t++ {
		yt, row := y[t], g.Row(first+t)
		row = row[:len(dst)]
		for j := range dst {
			dst[j] += yt * row[j]
		}
	}
}

// apply computes dst = M·x in g's order.
func (g *Gram) apply(dst, x []float64) {
	if !g.factored {
		g.dense.MulVec(dst, x)
		return
	}
	for t := range g.ax {
		g.ax[t] = dot(g.Row(t), x)
	}
	g.mulT(dst, g.ax, 0)
}

// iterate runs the power iteration from the unit start vector in g.v,
// leaving the eigenvector estimate in g.v, and returns its eigenvalue.
// It stops when both the eigenvalue and the direction (the angle between
// successive unit iterates, sign-insensitive) move by at most powerTol,
// after powerMaxIter steps, or when an iterate falls into the null space
// (eigenvalue 0).
func (g *Gram) iterate() float64 {
	v, next := g.v, g.next
	lambda := 0.0
	iters := 0
	for iters < powerMaxIter {
		iters++
		g.apply(next, v)
		newLambda := dot(v, next)
		//lint:ignore floatcmp exact zero-vector guard; v lies in the null space
		if normalize(next) == 0 {
			lambda = 0
			break
		}
		align := math.Abs(dot(v, next))
		v, next = next, v
		converged := math.Abs(newLambda-lambda) <= powerTol*(math.Abs(newLambda)+1) && 1-align <= powerTol
		lambda = newLambda
		if converged {
			break
		}
	}
	g.v, g.next = v, next
	obs.Add(obs.CounterEigenIterations, int64(iters))
	return lambda
}
