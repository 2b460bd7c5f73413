package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestRanks(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
	if got := Ranks([]float64{5}); got[0] != 1 {
		t.Errorf("single rank = %v", got)
	}
	if got := Ranks(nil); len(got) != 0 {
		t.Errorf("empty ranks = %v", got)
	}
	// All-ties.
	got = Ranks([]float64{7, 7, 7})
	for _, r := range got {
		if r != 2 {
			t.Errorf("all-tie ranks = %v, want all 2", got)
		}
	}
}

func TestWilcoxonIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3}
	res := Wilcoxon(a, a)
	if res.N != 0 || res.P != 1 {
		t.Errorf("identical samples: %+v", res)
	}
}

func TestWilcoxonClearDifference(t *testing.T) {
	// a consistently higher than b across 30 paired observations.
	rng := rand.New(rand.NewSource(1))
	n := 30
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		b[i] = rng.Float64()
		a[i] = b[i] + 0.5 + 0.1*rng.Float64()
	}
	res := Wilcoxon(a, b)
	if res.P > 0.001 {
		t.Errorf("p = %v, want < 0.001 for a uniform improvement", res.P)
	}
	if !SignificantlyBetter(a, b, 0.99) {
		t.Error("SignificantlyBetter should hold")
	}
	if SignificantlyBetter(b, a, 0.99) {
		t.Error("direction check failed: b is not better than a")
	}
}

func TestWilcoxonNoDifferenceOnNoise(t *testing.T) {
	// Independent same-distribution samples: rejections at the 1% level
	// should be rare. One fixed seed must not reject.
	rng := rand.New(rand.NewSource(2))
	n := 40
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	if SignificantlyBetter(a, b, 0.99) || SignificantlyBetter(b, a, 0.99) {
		t.Error("significance claimed on pure noise")
	}
}

func TestWilcoxonSymmetry(t *testing.T) {
	a := []float64{1, 5, 3, 8, 2, 9, 4}
	b := []float64{2, 3, 4, 6, 1, 7, 6}
	ra := Wilcoxon(a, b)
	rb := Wilcoxon(b, a)
	if math.Abs(ra.P-rb.P) > 1e-12 || ra.N != rb.N {
		t.Errorf("Wilcoxon not symmetric: %+v vs %+v", ra, rb)
	}
}

func TestWilcoxonPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Wilcoxon([]float64{1}, []float64{1, 2})
}

func TestFriedmanDetectsDominantMethod(t *testing.T) {
	// Method 0 always best, methods 1-2 noise.
	rng := rand.New(rand.NewSource(3))
	n := 30
	scores := make([][]float64, 3)
	for m := range scores {
		scores[m] = make([]float64, n)
		for d := range scores[m] {
			scores[m][d] = rng.Float64()
			if m == 0 {
				scores[m][d] += 1
			}
		}
	}
	res := Friedman(scores)
	if res.P > 0.001 {
		t.Errorf("Friedman p = %v, want < 0.001", res.P)
	}
	if res.AvgRanks[0] >= res.AvgRanks[1] || res.AvgRanks[0] >= res.AvgRanks[2] {
		t.Errorf("method 0 should have the best (smallest) rank: %v", res.AvgRanks)
	}
	if math.Abs(res.AvgRanks[0]-1) > 1e-9 {
		t.Errorf("dominant method rank = %v, want 1", res.AvgRanks[0])
	}
}

func TestFriedmanNullBehaviour(t *testing.T) {
	// Identical methods: chi-square 0 (all mid-ranks), p = 1.
	scores := [][]float64{
		{1, 2, 3, 4},
		{1, 2, 3, 4},
		{1, 2, 3, 4},
	}
	res := Friedman(scores)
	if res.ChiSq > 1e-9 {
		t.Errorf("chi-square = %v, want 0", res.ChiSq)
	}
	if res.P < 0.99 {
		t.Errorf("p = %v, want ~1", res.P)
	}
}

func TestFriedmanPanics(t *testing.T) {
	for _, scores := range [][][]float64{
		{{1, 2}},      // one method
		{{1, 2}, {1}}, // ragged
		{{}, {}},      // zero datasets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", scores)
				}
			}()
			Friedman(scores)
		}()
	}
}

func TestChiSquareSurvival(t *testing.T) {
	// Known values: P(X >= 3.841 | df=1) ≈ 0.05, P(X >= 5.991 | df=2) ≈ 0.05.
	cases := []struct {
		x    float64
		df   int
		want float64
	}{
		{3.841, 1, 0.05},
		{5.991, 2, 0.05},
		{6.635, 1, 0.01},
		{9.210, 2, 0.01},
		{0, 5, 1},
	}
	for _, c := range cases {
		if got := ChiSquareSurvival(c.x, c.df); math.Abs(got-c.want) > 0.001 {
			t.Errorf("ChiSq(%v, df=%d) = %v, want %v", c.x, c.df, got, c.want)
		}
	}
}

func TestChiSquareSurvivalMonotone(t *testing.T) {
	prev := 1.0
	for x := 0.5; x < 30; x += 0.5 {
		got := ChiSquareSurvival(x, 4)
		if got > prev+1e-12 {
			t.Fatalf("survival not monotone at %v", x)
		}
		prev = got
	}
}

func TestNemenyiCD(t *testing.T) {
	// Demšar's example scale: k=4, n=48 => CD = 2.569*sqrt(4*5/(6*48)).
	want := 2.569 * math.Sqrt(20.0/288.0)
	if got := NemenyiCD(4, 48); math.Abs(got-want) > 1e-9 {
		t.Errorf("CD = %v, want %v", got, want)
	}
}

func TestNemenyiCDPanicsOutOfTable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k=50")
		}
	}()
	NemenyiCD(50, 10)
}

func TestNemenyiGroups(t *testing.T) {
	// Ranks 1.0, 1.2, 3.9, 4.0 with k=4, n=48: CD ≈ 0.68, so {0,1} and
	// {2,3} group, but not across.
	avg := []float64{1.0, 1.2, 3.9, 4.0}
	order, cd, groups := NemenyiGroups(avg, 48)
	if order[0] != 0 || order[3] != 3 {
		t.Errorf("order = %v", order)
	}
	if cd <= 0 {
		t.Errorf("cd = %v", cd)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2 groups", groups)
	}
	inGroup := func(g []int, a, b int) bool {
		hasA, hasB := false, false
		for _, v := range g {
			if v == a {
				hasA = true
			}
			if v == b {
				hasB = true
			}
		}
		return hasA && hasB
	}
	if !inGroup(groups[0], 0, 1) || !inGroup(groups[1], 2, 3) {
		t.Errorf("unexpected groups %v", groups)
	}
	for _, g := range groups {
		if inGroup(g, 0, 3) {
			t.Errorf("methods 0 and 3 should not share a group: %v", groups)
		}
	}
}

func TestNemenyiGroupsAllEquivalent(t *testing.T) {
	avg := []float64{2.0, 2.1, 2.2}
	_, _, groups := NemenyiGroups(avg, 48)
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Errorf("expected one all-inclusive group, got %v", groups)
	}
}
