package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randFactor draws the n+3 random rows of a factor B of width n.
func randFactor(n int, rng *rand.Rand) [][]float64 {
	rows := make([][]float64, n+3)
	for r := range rows {
		rows[r] = make([]float64, n)
		for i := range rows[r] {
			rows[r][i] = rng.NormFloat64()
		}
	}
	return rows
}

// gramOf builds the PSD matrix BᵀB of the rows of B.
func gramOf(rows [][]float64) *Sym {
	s := NewSym(len(rows[0]))
	for _, x := range rows {
		s.GramAddOuter(x)
	}
	return s
}

// randPSD builds a random PSD matrix A = BᵀB of size n.
func randPSD(n int, rng *rand.Rand) *Sym { return gramOf(randFactor(n, rng)) }

// dominant runs Gram's power iteration on BᵀB for the rows of B, and
// returns a copy of the eigenvector.
func dominant(rows [][]float64) (float64, []float64) {
	var g Gram
	g.Reset(len(rows), len(rows[0]))
	for t, x := range rows {
		copy(g.Row(t), x)
	}
	lambda, v, _ := g.Dominant()
	return lambda, append([]float64(nil), v...)
}

// randSym builds a random symmetric (not necessarily PSD) matrix.
func randSym(n int, rng *rand.Rand) *Sym {
	s := NewSym(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s.Set(i, j, rng.NormFloat64())
		}
	}
	return s
}

func residual(s *Sym, lambda float64, v []float64) float64 {
	n := s.N
	tmp := make([]float64, n)
	s.MulVec(tmp, v)
	worst := 0.0
	for i := 0; i < n; i++ {
		r := math.Abs(tmp[i] - lambda*v[i])
		if r > worst {
			worst = r
		}
	}
	return worst
}

func TestSymSetAt(t *testing.T) {
	s := NewSym(3)
	s.Set(0, 2, 5)
	if s.At(0, 2) != 5 || s.At(2, 0) != 5 {
		t.Error("Set did not preserve symmetry")
	}
}

func TestNewSymPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSym(0)
}

func TestMulVec(t *testing.T) {
	s := NewSym(2)
	s.Set(0, 0, 1)
	s.Set(0, 1, 2)
	s.Set(1, 1, 3)
	dst := make([]float64, 2)
	s.MulVec(dst, []float64{1, 1})
	if dst[0] != 3 || dst[1] != 5 {
		t.Errorf("MulVec = %v, want [3 5]", dst)
	}
}

func TestGramAddOuter(t *testing.T) {
	s := NewSym(2)
	s.GramAddOuter([]float64{1, 2})
	s.GramAddOuter([]float64{3, -1})
	// Expected: [1 2; 2 4] + [9 -3; -3 1] = [10 -1; -1 5]
	want := [][]float64{{10, -1}, {-1, 5}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(s.At(i, j)-want[i][j]) > 1e-12 {
				t.Fatalf("Gram(%d,%d) = %v, want %v", i, j, s.At(i, j), want[i][j])
			}
		}
	}
}

func TestDominantEigenKnownMatrix(t *testing.T) {
	// [[2 1][1 2]] = BᵀB for B's rows √3·[1 1]/√2 and [1 -1]/√2 has
	// eigenvalues 3 (v = [1 1]/√2) and 1; B's first row alone gives
	// eigenvalue 3 with the same vector, from the 1×1 K = BBᵀ.
	rows := [][]float64{{math.Sqrt(1.5), math.Sqrt(1.5)}, {math.Sqrt(0.5), -math.Sqrt(0.5)}}
	for n := 1; n <= 2; n++ {
		lambda, v := dominant(rows[:n])
		if math.Abs(lambda-3) > 1e-10 {
			t.Errorf("n=%d: dominant eigenvalue = %v, want 3", n, lambda)
		}
		if math.Abs(math.Abs(v[0])-math.Sqrt(0.5)) > 1e-10 || math.Abs(v[0]-v[1]) > 1e-10 {
			t.Errorf("n=%d: dominant eigenvector = %v, want ±[0.707 0.707]", n, v)
		}
	}
}

func TestDominantEigenZeroMatrix(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, 4)
		}
		lambda, v := dominant(rows)
		if lambda != 0 {
			t.Errorf("n=%d: eigenvalue of zero matrix = %v", n, lambda)
		}
		if v[0] != 1 || dot(v, v) != 1 {
			t.Errorf("n=%d: eigenvector = %v, want e1", n, v)
		}
	}
}

// TestDominantEigenResidualProperty drives both sides of n = m: B's
// n+3 rows iterate on BᵀB, and its first n−1 rows on the smaller BBᵀ.
func TestDominantEigenResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 5, 16, 40} {
		rows := randFactor(n, rng)
		for _, b := range [][][]float64{rows, rows[:n-1]} {
			lambda, v := dominant(b)
			if lambda < 0 {
				t.Errorf("n=%d rows=%d: PSD matrix produced negative dominant eigenvalue %v", n, len(b), lambda)
			}
			if r := residual(gramOf(b), lambda, v); r > 1e-9*lambda {
				t.Errorf("n=%d rows=%d: residual %v too large for lambda=%v", n, len(b), r, lambda)
			}
		}
	}
}

func TestDominantMatchesFullDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		rows := randFactor(8, rng)
		for _, b := range [][][]float64{rows, rows[:5]} {
			vals, vecs := EigenDecompose(gramOf(b))
			lf, vf := vals[len(vals)-1], vecs[len(vecs)-1]
			lp, vp := dominant(b)
			if math.Abs(lp-lf) > 1e-9*lf {
				t.Errorf("trial %d rows=%d: power iteration %v vs full decomposition %v", trial, len(b), lp, lf)
			}
			if c := math.Abs(dot(vp, vf)); 1-c > 1e-9 {
				t.Errorf("trial %d rows=%d: eigenvectors misaligned, 1-|cos| = %v", trial, len(b), 1-c)
			}
		}
	}
}

// orthonormalRows returns n orthonormal rows of length n, by
// Gram-Schmidt on Gaussian rows.
func orthonormalRows(n int, rng *rand.Rand) [][]float64 {
	q := randFactor(n, rng)[:n]
	for i, qi := range q {
		for _, qj := range q[:i] {
			d := dot(qi, qj)
			for k := range qi {
				qi[k] -= d * qj[k]
			}
		}
		normalize(qi)
	}
	return q
}

// TestGramExactAfterStepCap builds factors whose two leading eigenvalues
// are 1 and 0.9999, so the power iteration stops at its step cap, on
// both sides of n = m: rows Σₖ Q[i][k]·√wₖ·basisₖ for orthonormal Q and
// basis give M = Σₖ wₖ·basisₖbasisₖᵀ and K = Q·diag(w)·Qᵀ. Exact must
// then return the pair EigenDecompose gives for M.
func TestGramExactAfterStepCap(t *testing.T) {
	const m = 6
	rng := rand.New(rand.NewSource(3))
	basis := orthonormalRows(m, rng)
	weights := []float64{1, 0.9999, 0.5, 0.3, 0.2, 0.1}
	for _, n := range []int{m, 3} {
		q := orthonormalRows(n, rng)
		var g Gram
		g.Reset(n, m)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = g.Row(i)
			for k := range n {
				for j := range rows[i] {
					rows[i][j] += q[i][k] * math.Sqrt(weights[k]) * basis[k][j]
				}
			}
		}
		if _, _, converged := g.Dominant(); converged {
			t.Fatalf("n=%d: the power iteration converged at λ₂/λ₁ = 0.9999; the check is vacuous", n)
		}
		lambda, v := g.Exact()
		if math.Abs(lambda-1) > 1e-12 {
			t.Errorf("n=%d: Exact eigenvalue = %v, want 1", n, lambda)
		}
		if c := math.Abs(dot(v, basis[0])); 1-c > 1e-9 {
			t.Errorf("n=%d: Exact eigenvector misaligned with basis 0, 1-|cos| = %v", n, 1-c)
		}
		if r := residual(gramOf(rows), lambda, v); r > 1e-12 {
			t.Errorf("n=%d: Exact residual ‖Mv − λv‖ = %v", n, r)
		}
	}
}

func TestSmallestEigen(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		s := randPSD(10, rng)
		lmin, v := SmallestEigen(s)
		vals, _ := EigenDecompose(s)
		if math.Abs(lmin-vals[0]) > 1e-5*(math.Abs(vals[0])+1) {
			t.Errorf("trial %d: smallest %v, want %v", trial, lmin, vals[0])
		}
		if r := residual(s, lmin, v); r > 1e-4*(math.Abs(lmin)+1) {
			t.Errorf("trial %d: residual %v", trial, r)
		}
	}
}

func TestEigenDecomposeReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 3, 7, 20} {
		s := randSym(n, rng)
		vals, vecs := EigenDecompose(s)
		// Ascending order.
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1] {
				t.Fatalf("n=%d: eigenvalues not ascending: %v", n, vals)
			}
		}
		// Each pair satisfies S v = λ v.
		for i := 0; i < n; i++ {
			if r := residual(s, vals[i], vecs[i]); r > 1e-8*(math.Abs(vals[i])+1) {
				t.Errorf("n=%d: eigenpair %d residual %v", n, i, r)
			}
		}
		// Orthonormal eigenvectors.
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				d := dot(vecs[i], vecs[j])
				want := 0.0
				if i == j {
					want = 1.0
				}
				if math.Abs(d-want) > 1e-8 {
					t.Errorf("n=%d: <v%d,v%d> = %v, want %v", n, i, j, d, want)
				}
			}
		}
		// Trace equals sum of eigenvalues.
		tr, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			tr += s.At(i, i)
			sum += vals[i]
		}
		if math.Abs(tr-sum) > 1e-8*(math.Abs(tr)+1) {
			t.Errorf("n=%d: trace %v != eigenvalue sum %v", n, tr, sum)
		}
	}
}

func TestEigenDecomposeDiagonal(t *testing.T) {
	s := NewSym(3)
	s.Set(0, 0, 3)
	s.Set(1, 1, 1)
	s.Set(2, 2, 2)
	vals, vecs := EigenDecompose(s)
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
	// Eigenvector for eigenvalue 1 must be ±e2.
	if math.Abs(math.Abs(vecs[0][1])-1) > 1e-10 {
		t.Errorf("eigenvector for 1 = %v, want ±e2", vecs[0])
	}
}

func TestRayleighQuotientBounds(t *testing.T) {
	// λmin <= R(x) <= λmax for any x — the variational property that
	// justifies solving Equation 15 with an eigendecomposition.
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randSym(6, rng)
		vals, _ := EigenDecompose(s)
		x := make([]float64, 6)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		sx := make([]float64, 6)
		s.MulVec(sx, x)
		num, den := 0.0, 0.0
		for i := range x {
			num += x[i] * sx[i]
			den += x[i] * x[i]
		}
		q := num / den
		return q >= vals[0]-1e-8 && q <= vals[5]+1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	s := NewSym(2)
	s.Set(0, 1, 4)
	c := s.Clone()
	c.Set(0, 1, 9)
	if s.At(0, 1) != 4 {
		t.Error("Clone shares storage")
	}
}
