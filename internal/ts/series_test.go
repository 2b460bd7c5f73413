package ts

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStd(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		mean float64
		std  float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{3}, 3, 0},
		{"constant", []float64{2, 2, 2, 2}, 2, 0},
		{"simple", []float64{1, 2, 3, 4}, 2.5, math.Sqrt(1.25)},
		{"negative", []float64{-1, 1}, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.in); !almostEqual(got, c.mean, 1e-12) {
				t.Errorf("Mean = %v, want %v", got, c.mean)
			}
			if got := Std(c.in); !almostEqual(got, c.std, 1e-12) {
				t.Errorf("Std = %v, want %v", got, c.std)
			}
		})
	}
}

func TestZNormalize(t *testing.T) {
	x := []float64{3, 7, -2, 0, 5, 5, 1}
	z := ZNormalize(x)
	if !almostEqual(Mean(z), 0, 1e-12) {
		t.Errorf("mean after z-norm = %v", Mean(z))
	}
	if !almostEqual(Std(z), 1, 1e-12) {
		t.Errorf("std after z-norm = %v", Std(z))
	}
	// Original must be untouched.
	if x[0] != 3 {
		t.Errorf("input mutated: %v", x)
	}
}

func TestZNormalizeConstant(t *testing.T) {
	z := ZNormalize([]float64{5, 5, 5})
	for _, v := range z {
		if v != 0 {
			t.Fatalf("constant series should z-normalize to zeros, got %v", z)
		}
	}
}

func TestZNormalizeInPlace(t *testing.T) {
	x := []float64{1, 2, 3}
	out := ZNormalizeInPlace(x)
	if &out[0] != &x[0] {
		t.Error("ZNormalizeInPlace should return the same backing slice")
	}
	if !IsZNormalized(x, 1e-9) {
		t.Errorf("not z-normalized: %v", x)
	}
}

func TestZNormalizeScaleTranslationInvariance(t *testing.T) {
	// z(a*x + b) == z(x) for a > 0: the scaling/translation invariance that
	// the paper achieves through z-normalization (Section 2.2).
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	zx := ZNormalize(x)
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 3.7*v - 12.5
	}
	zy := ZNormalize(y)
	for i := range zx {
		if !almostEqual(zx[i], zy[i], 1e-9) {
			t.Fatalf("z-norm not scale/translation invariant at %d: %v vs %v", i, zx[i], zy[i])
		}
	}
}

func TestNormalize01(t *testing.T) {
	x := []float64{2, 4, 6}
	got := Normalize01(x)
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("Normalize01 = %v, want %v", got, want)
		}
	}
	if z := Normalize01([]float64{1, 1}); z[0] != 0 || z[1] != 0 {
		t.Errorf("constant series should map to zeros, got %v", z)
	}
	if z := Normalize01(nil); len(z) != 0 {
		t.Errorf("empty input should give empty output")
	}
}

func TestNormalize01Property(t *testing.T) {
	f := func(raw []float64) bool {
		in := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				in = append(in, math.Mod(v, 1e6))
			}
		}
		out := Normalize01(in)
		for _, v := range out {
			if v < 0 || v > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOptimalScale(t *testing.T) {
	y := []float64{1, 2, 3}
	x := []float64{2, 4, 6}
	if c := OptimalScale(x, y); !almostEqual(c, 2, 1e-12) {
		t.Errorf("OptimalScale = %v, want 2", c)
	}
	if c := OptimalScale(x, []float64{0, 0, 0}); c != 0 {
		t.Errorf("zero-energy y should give 0, got %v", c)
	}
}

func TestOptimalScaleMinimizesResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 50)
	y := make([]float64, 50)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	c := OptimalScale(x, y)
	res := func(cc float64) float64 {
		s := 0.0
		for i := range x {
			d := x[i] - cc*y[i]
			s += d * d
		}
		return s
	}
	best := res(c)
	for _, dc := range []float64{-0.1, -0.01, 0.01, 0.1} {
		if res(c+dc) < best-1e-9 {
			t.Fatalf("c=%v is not a least-squares minimum (c+%v is better)", c, dc)
		}
	}
}

func TestShift(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	cases := []struct {
		s    int
		want []float64
	}{
		{0, []float64{1, 2, 3, 4}},
		{1, []float64{0, 1, 2, 3}},
		{3, []float64{0, 0, 0, 1}},
		{4, []float64{0, 0, 0, 0}},
		{9, []float64{0, 0, 0, 0}},
		{-1, []float64{2, 3, 4, 0}},
		{-3, []float64{4, 0, 0, 0}},
		{-4, []float64{0, 0, 0, 0}},
	}
	for _, c := range cases {
		got := Shift(y, c.s)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("Shift(%v, %d) = %v, want %v", y, c.s, got, c.want)
				break
			}
		}
	}
}

func TestShiftRoundTripProperty(t *testing.T) {
	// Shifting right then left by s preserves the prefix that stayed in the
	// window.
	f := func(vals []float64, s uint8) bool {
		if len(vals) == 0 {
			return true
		}
		k := int(s) % len(vals)
		back := Shift(Shift(vals, k), -k)
		for i := 0; i < len(vals)-k; i++ {
			if back[i] != vals[i] {
				return false
			}
		}
		for i := len(vals) - k; i < len(vals); i++ {
			if back[i] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReverse(t *testing.T) {
	got := Reverse([]float64{1, 2, 3})
	want := []float64{3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Reverse = %v, want %v", got, want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched lengths")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNewMatrix(t *testing.T) {
	m := NewMatrix(3, 4)
	if len(m) != 3 || len(m[0]) != 4 {
		t.Fatalf("NewMatrix shape = %dx%d", len(m), len(m[0]))
	}
	m[1][2] = 5
	if m[0][2] != 0 || m[2][2] != 0 {
		t.Error("rows alias each other")
	}
}

func TestRowsAndLabels(t *testing.T) {
	data := []Series{NewLabeled([]float64{1}, 0), NewLabeled([]float64{2}, 1)}
	r := Rows(data)
	if r[0][0] != 1 || r[1][0] != 2 {
		t.Errorf("Rows = %v", r)
	}
	l := Labels(data)
	if l[0] != 0 || l[1] != 1 {
		t.Errorf("Labels = %v", l)
	}
	if data[0].Len() != 1 {
		t.Errorf("Len = %d, want 1", data[0].Len())
	}
}

func TestIsZNormalized(t *testing.T) {
	if !IsZNormalized([]float64{}, 1e-9) {
		t.Error("empty should count as normalized")
	}
	if !IsZNormalized([]float64{0, 0, 0}, 1e-9) {
		t.Error("all-zero should count as normalized (degenerate case)")
	}
	if IsZNormalized([]float64{5, 6, 7}, 1e-9) {
		t.Error("unnormalized series misreported")
	}
}

func TestPAAKnownValues(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	got := PAA(x, 3)
	want := []float64{1.5, 3.5, 5.5}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("PAA = %v, want %v", got, want)
		}
	}
}

func TestPAAFractionalBoundaries(t *testing.T) {
	// 5 samples into 2 segments: segment width 2.5, so sample 2 is split
	// evenly between the two segments.
	x := []float64{2, 4, 10, 6, 8}
	got := PAA(x, 2)
	want := []float64{(2 + 4 + 0.5*10) / 2.5, (0.5*10 + 6 + 8) / 2.5}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("PAA = %v, want %v", got, want)
		}
	}
}

func TestPAAIdentityAndExtremes(t *testing.T) {
	x := []float64{3, 1, 4, 1, 5}
	id := PAA(x, 5)
	for i := range x {
		if id[i] != x[i] {
			t.Fatalf("PAA(x, m) = %v, want copy of x", id)
		}
	}
	if &id[0] == &x[0] {
		t.Error("PAA must not alias its input")
	}
	one := PAA(x, 1)
	if !almostEqual(one[0], Mean(x), 1e-12) {
		t.Errorf("PAA(x, 1) = %v, want the mean %v", one[0], Mean(x))
	}
}

func TestPAAMeanPreservation(t *testing.T) {
	// The weighted segment means must preserve the global mean for any
	// segment count (the segments tile [0, m) exactly).
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 37)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, segs := range []int{1, 2, 5, 7, 36, 37} {
		p := PAA(x, segs)
		if !almostEqual(Mean(p), Mean(x), 1e-9) {
			t.Errorf("segments=%d: mean %v != %v", segs, Mean(p), Mean(x))
		}
	}
}

func TestPAAPanicsOnBadSegments(t *testing.T) {
	for _, segs := range []int{0, -1, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PAA with %d segments should panic", segs)
				}
			}()
			PAA([]float64{1, 2, 3, 4, 5}, segs)
		}()
	}
}
