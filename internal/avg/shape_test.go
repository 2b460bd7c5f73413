package avg

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"kshape/internal/dataset"
	"kshape/internal/dist"
	"kshape/internal/ts"
)

// extractWith runs the shape-extraction kernel with M applied in the
// given order, bypassing the FactoredCheaper rule.
func extractWith(rows [][]float64, factored bool) []float64 {
	var w shapeWork
	w.reset(len(rows), len(rows[0]), factored)
	cen := make([]float64, len(rows[0]))
	w.extract(cen, rows, nil)
	return cen
}

// orderCases are clusters on both sides of the 2n ≤ m cost rule: the two
// benchmark workloads' cluster shapes and the degenerate corners.
func orderCases() map[string][][]float64 {
	var cbf [][]float64
	for _, s := range dataset.CBF(90, 512, 1) {
		if s.Label == 0 {
			cbf = append(cbf, s.Values)
		}
	}
	// The shapes workload's generator; its first 100 series are the sine
	// class.
	shapes := ts.Rows(dataset.Generate(dataset.Spec{
		Name: "shapes", M: 64, TrainPerClass: 100, Noise: 0.3, MaxShift: 8, WarpFrac: 0.05, Seed: 2,
		Classes: []dataset.ClassProto{dataset.SineProto(2, 0), dataset.SquareProto(2)},
	}).Train)[:100]
	one := cbf[:1]
	copies := [][]float64{cbf[1], cbf[1], cbf[1], cbf[1]}
	constant := make([][]float64, 6)
	for i := range constant {
		constant[i] = make([]float64, 40)
		for j := range constant[i] {
			constant[i][j] = float64(i) - 2.5
		}
	}
	return map[string][][]float64{
		"cbf-30x512":      cbf,
		"shapes-100x64":   shapes,
		"n=1":             one,
		"single-member":   copies,
		"all-constant":    constant,
		"square-64x64":    shapes[:64],
		"crossover-32x64": shapes[:32],
	}
}

func TestShapeExtractionOrdersAgree(t *testing.T) {
	cases := orderCases()
	if n := len(cases["cbf-30x512"]); n != 30 {
		t.Fatalf("CBF label-0 cluster has %d members, want 30", n)
	}
	for name, rows := range cases {
		factored := extractWith(rows, true)
		dense := extractWith(rows, false)
		for i := range factored {
			if math.Abs(factored[i]-dense[i]) > 1e-12 {
				t.Fatalf("%s: factored and dense centroids differ at %d: %v vs %v", name, i, factored[i], dense[i])
			}
		}
		want := ShapeExtractionAligned(rows)
		for i := range want {
			if math.Abs(want[i]-dense[i]) > 1e-12 {
				t.Fatalf("%s: ShapeExtractionAligned differs from the kernel at %d: %v vs %v", name, i, want[i], dense[i])
			}
		}
	}
}

func TestShapeExtractionZeroOperatorFallsBackToE1(t *testing.T) {
	// All-constant members z-normalize to zeros, so M is the zero matrix
	// and both orders must return the z-normalized e₁.
	rows := orderCases()["all-constant"]
	e1 := make([]float64, len(rows[0]))
	e1[0] = 1
	want := ts.ZNormalize(e1)
	for _, factored := range []bool{true, false} {
		got := extractWith(rows, factored)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("factored=%v: centroid[%d] = %v, want %v (z-normalized e1)", factored, i, got[i], want[i])
			}
		}
	}
}

func TestShapeExtractionWorkspaceReuse(t *testing.T) {
	// One workspace carried across clusters of different shapes and
	// orders must give what a fresh workspace gives.
	cases := orderCases()
	var w shapeWork
	for _, name := range []string{"cbf-30x512", "shapes-100x64", "n=1", "square-64x64", "cbf-30x512", "all-constant"} {
		rows := cases[name]
		for _, factored := range []bool{true, false} {
			w.reset(len(rows), len(rows[0]), factored)
			got := make([]float64, len(rows[0]))
			w.extract(got, rows, nil)
			want := extractWith(rows, factored)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s factored=%v: reused workspace differs at %d: %v vs %v", name, factored, i, got[i], want[i])
				}
			}
		}
	}
}

func TestShapeExtractionRaggedMembersPanic(t *testing.T) {
	long := make([]float64, 64)
	for i := range long {
		long[i] = math.Sin(float64(i) / 5)
	}
	cases := []struct {
		name    string
		members [][]float64
		ref     []float64
		bad     int
	}{
		{"factored-short", [][]float64{long, long, long[:50]}, nil, 2},
		{"dense-short", [][]float64{{1, 2, 3}, {1, 2}}, nil, 1},
		{"dense-long", [][]float64{{1, 2, 3}, {3, 1, 2}, {1, 2, 3, 4}}, nil, 2},
		{"aligned-to-ref", [][]float64{long, long[:63]}, long, 1},
	}
	// Warm the pool with a wider cluster, whose rows would otherwise
	// leave data in a short member's tail.
	ShapeExtractionAligned([][]float64{long, long, long, long})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				want := fmt.Sprintf("member %d has length %d", tc.bad, len(tc.members[tc.bad]))
				if !strings.HasPrefix(msg, "avg:") || !strings.Contains(msg, want) {
					t.Fatalf("panic = %v, want an avg: message containing %q", r, want)
				}
			}()
			ShapeExtraction(tc.members, tc.ref)
		})
	}
}

// memberShifts returns a deterministic spread of shifts for n members of
// length m, covering zero, both directions, and shifts past the window.
func memberShifts(n, m int) []int {
	shifts := make([]int, n)
	for t := range shifts {
		shifts[t] = (t*7)%(2*m+3) - m - 1
	}
	return shifts
}

func TestShapeExtractKernelAllocFree(t *testing.T) {
	cases := orderCases()
	for _, name := range []string{"cbf-30x512", "shapes-100x64"} {
		rows := cases[name]
		shifts := memberShifts(len(rows), len(rows[0]))
		for _, factored := range []bool{true, false} {
			var w shapeWork
			w.reset(len(rows), len(rows[0]), factored)
			cen := make([]float64, len(rows[0]))
			if allocs := testing.AllocsPerRun(5, func() { w.extract(cen, rows, nil) }); allocs != 0 {
				t.Errorf("%s factored=%v: extract allocates %v times per call, want 0", name, factored, allocs)
			}
			if allocs := testing.AllocsPerRun(5, func() { w.extract(cen, rows, shifts) }); allocs != 0 {
				t.Errorf("%s factored=%v: shifted extract allocates %v times per call, want 0", name, factored, allocs)
			}
		}
	}
}

// TestShapeExtractionShiftedMatchesShiftedCopies pins the shifted entry
// point to extraction over explicitly shifted copies, bit for bit, and
// ShapeExtraction to the shifts its own SBD alignment finds.
func TestShapeExtractionShiftedMatchesShiftedCopies(t *testing.T) {
	for name, rows := range orderCases() {
		shifts := memberShifts(len(rows), len(rows[0]))
		copies := make([][]float64, len(rows))
		for t, x := range rows {
			copies[t] = ts.Shift(x, shifts[t])
		}
		got := ShapeExtractionShifted(rows, shifts)
		want := ShapeExtractionAligned(copies)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: shifted extraction differs at %d: %v vs %v", name, i, got[i], want[i])
			}
		}
	}
	rows := orderCases()["shapes-100x64"]
	ref := rows[3]
	aligned := make([][]float64, len(rows))
	for t, x := range rows {
		_, y := dist.SBD(ref, x)
		aligned[t] = y
	}
	got, want := ShapeExtraction(rows, ref), ShapeExtractionAligned(aligned)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("ShapeExtraction differs from extraction of SBD-aligned copies at %d: %v vs %v", i, got[i], want[i])
		}
	}
}
