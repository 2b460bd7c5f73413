package dist_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kshape/internal/dist"
	"kshape/internal/obs"
	"kshape/internal/testkit"
	"kshape/internal/ts"
)

// TestNearestLowerBoundBelowSBD checks the bound Nearest prunes with on
// the degenerate-heavy input of the sbdbatch/lb-prune-exact oracle: for
// every pair with a non-NaN SBD, LB ≤ SBD + ScanMargin.
func TestNearestLowerBoundBelowSBD(t *testing.T) {
	pairs, bounded := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		refs, queries := testkit.NewGen(seed).NearestCase()
		b := dist.NewSBDBatch(refs)
		for qi, q := range queries {
			query := b.Query(q)
			for i, lb := range query.LowerBounds() {
				d, _ := query.Distance(i)
				if math.IsNaN(d) {
					continue
				}
				pairs++
				if !math.IsInf(lb, -1) {
					bounded++
				}
				if lb > d+dist.ScanMargin {
					t.Fatalf("seed %d query %d series %d (m=%d): bound %v above SBD %v",
						seed, qi, i, len(q), lb, d)
				}
			}
		}
	}
	if bounded < pairs/2 {
		t.Fatalf("only %d of %d pairs got a finite bound", bounded, pairs)
	}
}

// TestHeadTailBoundBelowSBD checks the head-tail bound of k-Shape's
// assignment scan on the degenerate-heavy NearestCase input (constant
// rows, duplicates, shifted copies, magnitudes 1e-160…1e300, and
// m ∈ {1, 2, 3}, where the tail is empty), also with refs and queries
// scaled by 1e±105: for every pair it is at most Nearest's full spectral
// bound + 1e-12 (−Inf outside the norm range, 1 on a zero denominator),
// and for every pair with a non-NaN SBD at most SBD + ScanMargin.
func TestHeadTailBoundBelowSBD(t *testing.T) {
	scales := []struct{ refs, queries float64 }{{1, 1}, {1e-105, 1}, {1, 1e105}, {1e-105, 1e-105}, {1e105, 1e-105}}
	pairs, bounded, tailed := 0, 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		refs0, queries0 := testkit.NewGen(seed).NearestCase()
		for _, sc := range scales {
			refs, queries := scaleAll(refs0, sc.refs), scaleAll(queries0, sc.queries)
			b := dist.NewSBDBatch(refs)
			tails := b.TailNorms()
			var qh dist.QueryHead
			var h dist.SeriesHead
			for qi, q := range queries {
				query := b.Query(q)
				query.LoadHead(&qh)
				full := query.LowerBounds()
				for i := range refs {
					b.LoadHead(i, tails[i], &h)
					lb := dist.HeadTailBound(&qh, &h)
					if lb > full[i]+1e-12 {
						t.Fatalf("seed %d scales %v query %d series %d (m=%d): head-tail bound %v above the full bound %v",
							seed, sc, qi, i, len(q), lb, full[i])
					}
					d, _ := query.Distance(i)
					if math.IsNaN(d) {
						continue
					}
					pairs++
					if !math.IsInf(lb, -1) {
						bounded++
						if tails[i] > 0 {
							tailed++
						}
					}
					if lb > d+dist.ScanMargin {
						t.Fatalf("seed %d scales %v query %d series %d (m=%d): head-tail bound %v above SBD %v",
							seed, sc, qi, i, len(q), lb, d)
					}
				}
			}
		}
	}
	if bounded < pairs/4 || tailed == 0 {
		t.Fatalf("%d of %d pairs got a finite bound, %d of them with a tail", bounded, pairs, tailed)
	}
}

// TestPhaseBoundBelowSBD checks the phase bound Nearest meets before each
// exact SBD at l ≥ 128: on the NearestCase input, whose lengths include
// m ∈ {57, 64} (l = 128) and {100, 127} (l = 256) and whose rows include
// constants, duplicates, shifted copies and magnitudes 1e-160…1e300, also
// with refs and queries scaled by 1e±105, and on pure tones (cos at bins
// 1–15) against copies shifted by up to one grid step less half a lag
// (0 to 1.5 lags at m = 64, 0 to 7.5 at m = 256, l = 512), which put the
// correlation's peak anywhere between two grid points. For every pair
// with a non-NaN SBD the bound is at most SBD + ScanMargin, and on most
// phase-bounded NearestCase pairs it is tighter than the phase-free
// spectral bound.
func TestPhaseBoundBelowSBD(t *testing.T) {
	scales := []struct{ refs, queries float64 }{{1, 1}, {1e-105, 1}, {1, 1e105}, {1e-105, 1e-105}, {1e105, 1e-105}}
	pairs, tighter := 0, 0
	check := func(what string, b *dist.SBDBatch, q []float64) {
		t.Helper()
		query := b.Query(q)
		full := query.LowerBounds()
		for i, lb := range query.PhaseBounds() {
			d, _ := query.Distance(i)
			if math.IsNaN(lb) || math.IsNaN(d) {
				continue
			}
			pairs++
			if lb > full[i] {
				tighter++
			}
			if lb > d+dist.ScanMargin {
				t.Fatalf("%s series %d (m=%d): phase bound %v above SBD %v", what, i, len(q), lb, d)
			}
		}
	}
	for seed := int64(1); seed <= 300; seed++ {
		refs0, queries0 := testkit.NewGen(seed).NearestCase()
		for _, sc := range scales {
			b := dist.NewSBDBatch(scaleAll(refs0, sc.refs))
			for qi, q := range scaleAll(queries0, sc.queries) {
				check(fmt.Sprintf("seed %d scales %v query %d", seed, sc, qi), b, q)
			}
		}
	}
	// 799 of 904 phase-bounded pairs when this test was written.
	if tighter < 700 {
		t.Fatalf("the phase bound beat the spectral bound on %d of %d NearestCase pairs, want at least 700", tighter, pairs)
	}
	for _, g := range []struct {
		m       int
		l, step float64 // transform length and grid step l/64
	}{{64, 128, 2}, {256, 512, 8}} {
		tone := func(bin int, lag float64) []float64 {
			x := make([]float64, g.m)
			for i := range x {
				x[i] = math.Cos(2 * math.Pi * float64(bin) * (float64(i) - lag) / g.l)
			}
			return x
		}
		for bin := 1; bin < 16; bin++ {
			b := dist.NewSBDBatch([][]float64{tone(bin, 0)})
			for lag := 0.0; lag < g.step; lag += 0.5 {
				check(fmt.Sprintf("tone m=%d bin %d lag %v", g.m, bin, lag), b, tone(bin, lag))
			}
		}
	}
}

// TestNearestTieGoesToSmallerIndex: the same reference at indices 2 and 5
// (and a power-of-two scaling of it, whose spectrum, norm, bound and SBD
// are bit-identical up to that exact factor, at index 7) ties exactly, and
// Nearest must return the smaller index, as the unpruned scan does.
func TestNearestTieGoesToSmallerIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	refs := make([][]float64, 8)
	for i := range refs {
		refs[i] = ts.ZNormalize(randWalk(64, rng))
	}
	copy(refs[5], refs[2])
	refs[7] = ts.Scale(refs[2], 2)
	b := dist.NewSBDBatch(refs)
	for _, q := range [][]float64{refs[2], ts.Shift(refs[2], 3)} {
		query := b.Query(q)
		d2, _ := query.Distance(2)
		for _, i := range []int{5, 7} {
			if d, _ := query.Distance(i); math.Float64bits(d) != math.Float64bits(d2) {
				t.Fatalf("SBD to series %d is %v, to series 2 %v: not an exact tie", i, d, d2)
			}
		}
		idx, d := query.Nearest()
		if idx != 2 {
			t.Fatalf("Nearest = %d (SBD %v), want 2 among the exact ties 2, 5, 7", idx, d)
		}
	}
}

// TestBlockBoundsMatchBlockOfOne pins SBDNearest's bound pass to
// Nearest's on the degenerate-heavy NearestCase input: each query's bound
// row is the same bits as the one-query loop the block pass replaced,
// whether it runs in a block of one or in a block of any size up to
// NearestBlock (a tail block included). Refs and queries
// are also scaled out of [MinBoundNorm, MaxBoundNorm], where every
// non-degenerate pair's bound must be −Inf.
func TestBlockBoundsMatchBlockOfOne(t *testing.T) {
	scales := []struct{ refs, queries float64 }{{1, 1}, {1e-105, 1}, {1, 1e105}, {1e-105, 1e-105}, {1e105, 1e-105}}
	unbounded := 0
	for seed := int64(1); seed <= 200; seed++ {
		refs0, queries0 := testkit.NewGen(seed).NearestCase()
		for _, sc := range scales {
			refs, queries := scaleAll(refs0, sc.refs), scaleAll(append(queries0, refs0...), sc.queries)
			b := dist.NewSBDBatch(refs)
			want := make([][]float64, len(queries))
			for j, q := range queries {
				query := b.Query(q)
				want[j] = query.LowerBounds()
				for i, lb := range query.OneQueryLowerBounds() {
					if math.Float64bits(lb) != math.Float64bits(want[j][i]) {
						t.Fatalf("seed %d scales %v query %d series %d: block of one %v, one-query loop %v",
							seed, sc, j, i, want[j][i], lb)
					}
				}
				unbounded += checkUnboundable(t, seed, want[j], ts.Norm(q), refs)
			}
			for size := 1; size <= dist.NearestBlock; size++ {
				for lo := 0; lo < len(queries); lo += size {
					hi := min(lo+size, len(queries))
					for j, row := range b.BlockLowerBounds(queries[lo:hi]) {
						for i, lb := range row {
							if math.Float64bits(lb) != math.Float64bits(want[lo+j][i]) {
								t.Fatalf("seed %d scales %v block size %d query %d series %d: bound %v, block of one %v",
									seed, sc, size, lo+j, i, lb, want[lo+j][i])
							}
						}
					}
				}
			}
		}
	}
	if unbounded == 0 {
		t.Fatal("no pair fell outside the bound's norm range")
	}
}

// checkUnboundable fails unless every pair of a query (of norm qn) and a
// series, one of them with a norm outside [MinBoundNorm, MaxBoundNorm],
// has bound −Inf, or 1 when the pair's denominator is zero. It returns the
// number of −Inf pairs.
func checkUnboundable(t *testing.T, seed int64, row []float64, qn float64, refs [][]float64) int {
	t.Helper()
	n := 0
	bounded := func(norm float64) bool { return norm >= dist.MinBoundNorm && norm <= dist.MaxBoundNorm }
	for i, lb := range row {
		xn := ts.Norm(refs[i])
		switch {
		case qn*xn == 0:
			if lb != 1 {
				t.Fatalf("seed %d series %d: degenerate pair has bound %v, want 1", seed, i, lb)
			}
		case !bounded(qn) || !bounded(xn):
			if !math.IsInf(lb, -1) {
				t.Fatalf("seed %d series %d: norms %v, %v outside the bound range, bound %v, want -Inf", seed, i, qn, xn, lb)
			}
			n++
		}
	}
	return n
}

func scaleAll(rows [][]float64, s float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = ts.Scale(r, s)
	}
	return out
}

// TestSBDNearestMatchesPerQueryNearest: SBDNearest, which bounds its
// queries in blocks, returns per-query Nearest's indices at every worker
// count, with the same evaluated and pruned pair counts.
func TestSBDNearestMatchesPerQueryNearest(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	for seed := int64(1); seed <= 200; seed++ {
		refs, queries := testkit.NewGen(seed).NearestCase()
		queries = append(queries, refs...)
		b := dist.NewSBDBatch(refs)
		before := obs.ReadCounters()
		want := make([]int, len(queries))
		for j, q := range queries {
			want[j], _ = b.Query(q).Nearest()
		}
		wantC := obs.ReadCounters().Sub(before)
		for _, w := range []int{1, 2, 8} {
			before := obs.ReadCounters()
			got := dist.SBDNearest(refs, queries, w)
			c := obs.ReadCounters().Sub(before)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("seed %d workers %d query %d: SBDNearest %d, Nearest %d", seed, w, j, got[j], want[j])
				}
			}
			if c.SBD != wantC.SBD || c.SBDPruned != wantC.SBDPruned {
				t.Fatalf("seed %d workers %d: sbd %d sbd_pruned %d, per-query Nearest %d and %d",
					seed, w, c.SBD, c.SBDPruned, wantC.SBD, wantC.SBDPruned)
			}
		}
	}
}

func randWalk(m int, rng *rand.Rand) []float64 {
	x := make([]float64, m)
	v := 0.0
	for i := range x {
		v += rng.NormFloat64()
		x[i] = v
	}
	return x
}
