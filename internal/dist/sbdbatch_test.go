package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"kshape/internal/ts"
)

// TestSBDBatchMatchesPlainSBD pins the batch paths to the per-pair SBD
// bit for bit: Distance of a prepared query and PairDistance of two cached
// series return exactly SBD's distance and shift. The lengths cover both
// parities of the half-transform's stage count (l = 8, 64, 128, 256, 512,
// 1024).
func TestSBDBatchMatchesPlainSBD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{4, 17, 64, 128, 256, 512} {
		n := 12
		data := make([][]float64, n)
		for i := range data {
			data[i] = ts.ZNormalize(randSeries(m, rng))
		}
		batch := NewSBDBatch(data)
		if batch.Len() != n {
			t.Fatalf("Len = %d", batch.Len())
		}
		// check compares one batch result with SBD(x, y): the distance bit
		// for bit, and the shift through the series it aligns.
		check := func(leg string, x, y []float64, gotD float64, gotShift int) {
			t.Helper()
			wantD, wantAligned := SBD(x, y)
			if gotD != wantD {
				t.Fatalf("m=%d %s: batch distance %v != plain %v", m, leg, gotD, wantD)
			}
			aligned := ts.Shift(y, gotShift)
			for p := range aligned {
				if aligned[p] != wantAligned[p] {
					t.Fatalf("m=%d %s: shift %d aligns differently from plain SBD at %d", m, leg, gotShift, p)
				}
			}
		}
		for trial := 0; trial < 5; trial++ {
			query := ts.ZNormalize(randSeries(m, rng))
			q := batch.Query(query)
			for i := 0; i < n; i++ {
				gotD, gotShift := q.Distance(i)
				check(fmt.Sprintf("query %d, series %d", trial, i), query, data[i], gotD, gotShift)
			}
		}
		sc := batch.Scratch()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				gotD, gotShift := batch.PairDistance(i, j, sc)
				check(fmt.Sprintf("pair (%d, %d)", i, j), data[i], data[j], gotD, gotShift)
			}
		}
	}
}

func TestSBDBatchDegenerate(t *testing.T) {
	data := [][]float64{make([]float64, 8), ts.ZNormalize(randSeries(8, rand.New(rand.NewSource(2))))}
	batch := NewSBDBatch(data)
	q := batch.Query(data[1])
	if d, shift := q.Distance(0); d != 1 || shift != 0 {
		t.Errorf("degenerate member: d=%v shift=%d, want 1, 0", d, shift)
	}
	zq := batch.Query(make([]float64, 8))
	if d, _ := zq.Distance(1); d != 1 {
		t.Errorf("degenerate query: d=%v, want 1", d)
	}
}

func TestSBDBatchEmpty(t *testing.T) {
	b := NewSBDBatch(nil)
	if b.Len() != 0 {
		t.Errorf("empty batch Len = %d", b.Len())
	}
}

func TestSBDBatchPanicsOnRaggedData(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSBDBatch([][]float64{{1, 2}, {1, 2, 3}})
}

func TestSBDBatchPanicsOnBadQueryLength(t *testing.T) {
	b := NewSBDBatch([][]float64{{1, 2, 3}})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b.Query([]float64{1, 2})
}

func TestSBDBatchDoesNotObserveInputMutation(t *testing.T) {
	x := []float64{1, -1, 1, -1}
	y := []float64{1, 1, -1, -1}
	b := NewSBDBatch([][]float64{x, y})
	q := b.Query(ts.ZNormalize([]float64{1, -1, 1, -1}))
	before, _ := q.Distance(0)
	x[0] = 99 // mutate after precompute
	q2 := b.Query(ts.ZNormalize([]float64{1, -1, 1, -1}))
	after, _ := q2.Distance(0)
	if before != after {
		t.Error("batch observed input mutation; spectra must be captured at construction")
	}
}
