package avg

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"kshape/internal/dataset"
	"kshape/internal/dist"
	"kshape/internal/linalg"
	"kshape/internal/ts"
)

// extractWith runs shape extraction, the power-iteration kernel and its
// exact fallback, on a fresh workspace.
func extractWith(rows [][]float64) []float64 {
	var w shapeWork
	w.reset(len(rows), len(rows[0]))
	cen := make([]float64, len(rows[0]))
	w.centroid(cen, rows, nil)
	return cen
}

// shapesCluster is the sine class of the shapes workload's generator, 100
// members of length 64.
func shapesCluster(seed int64) [][]float64 {
	return ts.Rows(dataset.Generate(dataset.Spec{
		Name: "shapes", M: 64, TrainPerClass: 100, Noise: 0.3, MaxShift: 8, WarpFrac: 0.05, Seed: seed,
		Classes: []dataset.ClassProto{dataset.SineProto(2, 0), dataset.SquareProto(2)},
	}).Train)[:100]
}

// shiftedSines returns n noisy copies of a sine of f periods per m
// samples, with phases spread evenly over ±delta radians.
func shiftedSines(n, m int, f, delta float64) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, n)
	for t := range rows {
		phase := delta * (2*float64(t)/float64(n-1) - 1)
		rows[t] = make([]float64, m)
		for i := range rows[t] {
			rows[t][i] = math.Sin(2*math.Pi*f*float64(i)/float64(m)+phase) + 0.05*rng.NormFloat64()
		}
	}
	return rows
}

// constantRows returns n all-constant members of length m, which
// z-normalize to zeros.
func constantRows(n, m int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, m)
		for j := range rows[i] {
			rows[i][j] = float64(i) - 2.5
		}
	}
	return rows
}

// clusterCases are clusters on both sides of n = m, where the power
// iteration moves from K = AAᵀ to M = AᵀA: the two benchmark workloads'
// cluster shapes and the degenerate corners.
func clusterCases() map[string][][]float64 {
	var cbf [][]float64
	for _, s := range dataset.CBF(90, 512, 1) {
		if s.Label == 0 {
			cbf = append(cbf, s.Values)
		}
	}
	shapes := shapesCluster(2)
	return map[string][][]float64{
		"cbf-30x512":    cbf,
		"shapes-100x64": shapes,
		// BenchmarkShapeExtractionShapes100x64's cluster, where λ₂/λ₁
		// is about 0.88.
		"bench-shapes-100x64": shapesCluster(1),
		"n=1":                 cbf[:1],
		"single-member":       {cbf[1], cbf[1], cbf[1], cbf[1]},
		"all-constant":        constantRows(6, 40),
		"all-constant-wide":   constantRows(48, 40),
		"square-64x64":        shapes[:64],
		"narrow-32x64":        shapes[:32],
		"narrow-63x64":        shapes[:63],
		// Sines shifted across ±1.4 rad: λ₂/λ₁ is about 0.987, so the
		// power iteration stops at its step cap and the exact solve runs.
		"sines-12x32": shiftedSines(12, 32, 1.5, 1.4),
	}
}

// eigenCentroid rebuilds the centroid of aligned rows from the full
// decomposition of the smaller of M = AᵀA and K = AAᵀ, with the kernel's
// sign rule. K's top eigenvector u gives M's as Aᵀu, so a narrow cluster
// of long series needs no m×m decomposition.
func eigenCentroid(rows [][]float64) []float64 {
	n, m := len(rows), len(rows[0])
	a := make([][]float64, n)
	zsum := make([]float64, m)
	for t, x := range rows {
		a[t] = ts.ZNormalize(x)
		for j, z := range a[t] {
			zsum[j] += z
		}
		mu := ts.Mean(a[t])
		for j := range a[t] {
			a[t][j] -= mu
		}
	}
	var cen []float64
	if n >= m {
		s := linalg.NewSym(m)
		for _, x := range a {
			s.GramAddOuter(x)
		}
		_, vecs := linalg.EigenDecompose(s)
		cen = vecs[m-1]
	} else {
		k := linalg.NewSym(n)
		for s := range a {
			for t := s; t < n; t++ {
				k.Set(s, t, ts.Dot(a[s], a[t]))
			}
		}
		_, vecs := linalg.EigenDecompose(k)
		cen = make([]float64, m)
		for t, x := range a {
			for j := range cen {
				cen[j] += vecs[n-1][t] * x[j]
			}
		}
	}
	cen = ts.ZNormalize(cen)
	if ts.Dot(zsum, cen) < 0 {
		for i := range cen {
			cen[i] = -cen[i]
		}
	}
	return cen
}

// maxAbsDiff returns the largest |a[i] − b[i]|.
func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		worst = max(worst, math.Abs(a[i]-b[i]))
	}
	return worst
}

// TestShapeExtractionMatchesEigenDecompose pins every cluster's centroid
// to the exact dominant eigenvector within 1e-9, narrow eigengaps
// included.
func TestShapeExtractionMatchesEigenDecompose(t *testing.T) {
	cases := clusterCases()
	if n := len(cases["cbf-30x512"]); n != 30 {
		t.Fatalf("CBF label-0 cluster has %d members, want 30", n)
	}
	for name, rows := range cases {
		got := extractWith(rows)
		pooled := ShapeExtractionAligned(rows)
		for i := range got {
			if math.Float64bits(pooled[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%s: ShapeExtractionAligned differs from the kernel at %d: %v vs %v", name, i, pooled[i], got[i])
			}
		}
		if strings.HasPrefix(name, "all-constant") {
			continue // M = 0: every vector is an eigenvector
		}
		if d := maxAbsDiff(got, eigenCentroid(rows)); d > 1e-9 {
			t.Errorf("%s (n=%d, m=%d): centroid is %.3g from the EigenDecompose rebuild, want ≤ 1e-9", name, len(rows), len(rows[0]), d)
		}
	}
}

// TestShapeExtractionSidesAgree compares each cluster with n < m, solved
// on K = AAᵀ, against its rows repeated until n ≥ m, solved on M = AᵀA:
// repeating every row c times scales M by c and keeps its eigenvector.
func TestShapeExtractionSidesAgree(t *testing.T) {
	for name, rows := range clusterCases() {
		n, m := len(rows), len(rows[0])
		if n >= m || strings.HasPrefix(name, "all-constant") {
			continue
		}
		var repeated [][]float64
		for len(repeated) < m {
			repeated = append(repeated, rows...)
		}
		if d := maxAbsDiff(extractWith(rows), extractWith(repeated)); d > 1e-9 {
			t.Errorf("%s: K side (n=%d) and M side (n=%d) centroids differ by %.3g, want ≤ 1e-9", name, n, len(repeated), d)
		}
	}
}

func TestShapeExtractionZeroOperatorFallsBackToE1(t *testing.T) {
	// All-constant members z-normalize to zeros, so M is the zero matrix
	// and both sides must return the z-normalized e₁.
	cases := clusterCases()
	for _, name := range []string{"all-constant", "all-constant-wide"} {
		rows := cases[name]
		e1 := make([]float64, len(rows[0]))
		e1[0] = 1
		want := ts.ZNormalize(e1)
		got := extractWith(rows)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: centroid[%d] = %v, want %v (z-normalized e1)", name, i, got[i], want[i])
			}
		}
	}
}

func TestShapeExtractionWorkspaceReuse(t *testing.T) {
	// One workspace carried across clusters of different shapes, on both
	// sides of n = m, must give what a fresh workspace gives.
	cases := clusterCases()
	var w shapeWork
	for _, name := range []string{"cbf-30x512", "shapes-100x64", "n=1", "square-64x64", "narrow-63x64", "cbf-30x512", "all-constant-wide", "all-constant"} {
		rows := cases[name]
		w.reset(len(rows), len(rows[0]))
		got := make([]float64, len(rows[0]))
		w.extract(got, rows, nil)
		want := extractWith(rows)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: reused workspace differs at %d: %v vs %v", name, i, got[i], want[i])
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
	cases := clusterCases()
	for _, name := range []string{"cbf-30x512", "narrow-63x64", "square-64x64", "shapes-100x64"} {
		rows := cases[name]
		shifts := memberShifts(len(rows), len(rows[0]))
		var w shapeWork
		w.reset(len(rows), len(rows[0]))
		cen := make([]float64, len(rows[0]))
		if allocs := testing.AllocsPerRun(5, func() { w.extract(cen, rows, nil) }); allocs != 0 {
			t.Errorf("%s: extract allocates %v times per call, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(5, func() { w.extract(cen, rows, shifts) }); allocs != 0 {
			t.Errorf("%s: shifted extract allocates %v times per call, want 0", name, allocs)
		}
	}
}

// TestShapeExtractionShiftedMatchesShiftedCopies pins the shifted entry
// point to extraction over explicitly shifted copies, bit for bit, and
// ShapeExtraction to the shifts its own SBD alignment finds.
func TestShapeExtractionShiftedMatchesShiftedCopies(t *testing.T) {
	for name, rows := range clusterCases() {
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
	rows := clusterCases()["shapes-100x64"]
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
