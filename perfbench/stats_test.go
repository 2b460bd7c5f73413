package main

import (
	"math"
	"testing"
)

func TestPercentileEmptyIsNaN(t *testing.T) {
	if v := Percentile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("empty percentile is not NaN: %v", v)
	}
	if v := Median([]float64{}); !math.IsNaN(v) {
		t.Errorf("empty median is not NaN: %v", v)
	}
	if v := Mean(nil); !math.IsNaN(v) {
		t.Errorf("empty mean is not NaN: %v", v)
	}
	if v := Percentile([]float64{1, 2}, math.NaN()); !math.IsNaN(v) {
		t.Errorf("NaN-quantile percentile is not NaN: %v", v)
	}
}

func TestPercentileOneElement(t *testing.T) {
	for _, p := range []float64{0, 0.5, 0.9, 1} {
		if v := Percentile([]float64{7}, p); v != 7 {
			t.Errorf("Percentile([7], %v) = %v, want 7", p, v)
		}
	}
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs      []float64
		p, want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{3, 1, 2}, 0, 1},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9, 10},
		{[]float64{1, 2}, -1, 1},
		{[]float64{1, 2}, 2, 2},
	}
	for _, c := range cases {
		if v := Percentile(c.xs, c.p); math.Abs(v-c.want) > 1e-12 {
			t.Errorf("Percentile(%v, %v) = %v, want %v", c.xs, c.p, v, c.want)
		}
	}
}

func TestPercentileMonotoneAndInputUntouched(t *testing.T) {
	list := []float64{34, 2, 25, 6, 76, 7, 4, 3, 3, 343433, 3.4354}
	orig := append([]float64(nil), list...)
	last := math.Inf(-1)
	for i := 0; i <= 100; i++ {
		p := Percentile(list, float64(i)/100)
		if p < last {
			t.Errorf("percentile decreased at p=%d%%: %v -> %v", i, last, p)
		}
		last = p
	}
	for i := range list {
		if list[i] != orig[i] {
			t.Fatalf("Percentile reordered its input: %v", list)
		}
	}
}

func TestTailSupported(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{0, 0.9, false},
		{1, 0.9, false},
		{99, 0.9, false}, // nine beyond the p90
		{100, 0.9, true}, // exactly ten beyond
		{250, 0.9, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{10, 0, true},
		{9, 0, false},
		{100, math.NaN(), false},
	}
	for _, c := range cases {
		if got := TailSupported(c.n, c.p); got != c.want {
			t.Errorf("TailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}
