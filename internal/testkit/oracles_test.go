package testkit

import (
	"math"
	"math/rand"
	"testing"

	"kshape/internal/linalg"
)

func randSym(n int, rng *rand.Rand) *linalg.Sym {
	s := linalg.NewSym(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s.Set(i, j, rng.NormFloat64())
		}
	}
	return s
}

func TestCenterProject(t *testing.T) {
	// After Qᵀ S Q, the all-ones vector must be in the null space:
	// row sums and column sums of the projected matrix are zero.
	rng := rand.New(rand.NewSource(13))
	s := randSym(6, rng)
	centerProject(s)
	for i := 0; i < 6; i++ {
		rowSum := 0.0
		for j := 0; j < 6; j++ {
			rowSum += s.At(i, j)
		}
		if math.Abs(rowSum) > 1e-10 {
			t.Errorf("row %d sum = %v after centering", i, rowSum)
		}
	}
}

func TestCenterProjectMatchesExplicitQ(t *testing.T) {
	// Compare the in-place centering with an explicit Q S Q product.
	n := 5
	rng := rand.New(rand.NewSource(17))
	s := randSym(n, rng)
	want := linalg.NewSym(n)
	q := func(i, j int) float64 {
		v := -1.0 / float64(n)
		if i == j {
			v += 1.0
		}
		return v
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					acc += q(a, i) * s.At(a, b) * q(b, j)
				}
			}
			want.Data[i*n+j] = acc
		}
	}
	got := s.Clone()
	centerProject(got)
	for i := 0; i < n*n; i++ {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-10 {
			t.Fatalf("centerProject mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}
