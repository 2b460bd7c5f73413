package dist

import (
	"math"
	"math/rand"
	"testing"

	"kshape/internal/obs"
	"kshape/internal/par"
)

// envelopeNaive is the quadratic reference implementation.
func envelopeNaive(y []float64, window int) (upper, lower []float64) {
	m := len(y)
	upper = make([]float64, m)
	lower = make([]float64, m)
	for i := 0; i < m; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window
		if hi > m-1 {
			hi = m - 1
		}
		u, l := math.Inf(-1), math.Inf(1)
		for j := lo; j <= hi; j++ {
			if y[j] > u {
				u = y[j]
			}
			if y[j] < l {
				l = y[j]
			}
		}
		upper[i], lower[i] = u, l
	}
	return upper, lower
}

func TestEnvelopeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, m := range []int{1, 2, 5, 31, 100} {
		y := randSeries(m, rng)
		for _, w := range []int{0, 1, 3, 10, m} {
			gu, gl := Envelope(y, w)
			wu, wl := envelopeNaive(y, w)
			for i := 0; i < m; i++ {
				if gu[i] != wu[i] || gl[i] != wl[i] {
					t.Fatalf("m=%d w=%d i=%d: got (%v,%v), want (%v,%v)",
						m, w, i, gu[i], gl[i], wu[i], wl[i])
				}
			}
		}
	}
}

func TestEnvelopeEmpty(t *testing.T) {
	u, l := Envelope(nil, 3)
	if len(u) != 0 || len(l) != 0 {
		t.Error("empty input should give empty envelopes")
	}
}

func TestEnvelopeContainsSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	y := randSeries(64, rng)
	u, l := Envelope(y, 5)
	for i := range y {
		if y[i] > u[i] || y[i] < l[i] {
			t.Fatalf("series escapes envelope at %d: %v not in [%v, %v]", i, y[i], l[i], u[i])
		}
	}
}

func TestLBKeoghIsLowerBound(t *testing.T) {
	// LB_Keogh(x, y) <= cDTW(x, y) — the correctness property that makes
	// pruning sound (Table 2's _LB rows).
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		m := 40
		x := randSeries(m, rng)
		y := randSeries(m, rng)
		for _, w := range []int{1, 4, 10} {
			u, l := Envelope(y, w)
			lb := LBKeogh(x, u, l)
			d := CDTW(x, y, w)
			if lb > d+1e-9 {
				t.Fatalf("trial %d w=%d: LB_Keogh %v exceeds cDTW %v", trial, w, lb, d)
			}
		}
	}
}

func TestLBKeoghZeroWhenInsideEnvelope(t *testing.T) {
	y := []float64{0, 1, 2, 1, 0}
	u, l := Envelope(y, 2)
	if lb := LBKeogh(y, u, l); lb != 0 {
		t.Errorf("LB_Keogh of y against its own envelope = %v", lb)
	}
}

func TestNNIndex(t *testing.T) {
	refs := [][]float64{{0, 0}, {5, 5}, {1, 1}}
	idx, d := NNIndex(EDMeasure{}, []float64{0.9, 0.9}, refs)
	if idx != 2 {
		t.Errorf("NN index = %d, want 2", idx)
	}
	if math.Abs(d-ED([]float64{0.9, 0.9}, refs[2])) > 1e-12 {
		t.Errorf("NN distance = %v", d)
	}
}

func TestNNIndexEmptyRefs(t *testing.T) {
	idx, d := NNIndex(EDMeasure{}, []float64{1}, nil)
	if idx != -1 || !math.IsInf(d, 1) {
		t.Errorf("empty refs: idx=%d d=%v", idx, d)
	}
}

// TestLBNNSearcherAgreesWithLinearScan shares one searcher across
// concurrent queries (the way eval.OneNNAccuracyLB uses it; run under
// -race this is its data-race check) and requires the pruned search to
// return the brute-force nearest distance, counting its cDTW evaluations
// through the obs DTW counter.
func TestLBNNSearcherAgreesWithLinearScan(t *testing.T) {
	// The pruned search must return exactly the same nearest neighbor
	// distance as brute force (index may differ only under exact ties).
	rng := rand.New(rand.NewSource(13))
	m, n, nq := 32, 25, 20
	refs := make([][]float64, n)
	for i := range refs {
		refs[i] = randSeries(m, rng)
	}
	queries := make([][]float64, nq)
	for q := range queries {
		queries[q] = randSeries(m, rng)
	}
	w := 3
	searcher := NewLBNNSearcher(refs, w)
	gotIdx, gotD := make([]int, nq), make([]float64, nq)
	prev := obs.SetEnabled(true)
	before := obs.ReadCounters()
	par.For(4, nq, func(q int) { gotIdx[q], gotD[q] = searcher.NN(queries[q]) })
	evaluated := obs.ReadCounters().Sub(before).DTW
	obs.SetEnabled(prev)
	meas := CDTWMeasure{Window: w}
	for q, query := range queries {
		wantIdx, wantD := NNIndex(meas, query, refs)
		if math.Abs(gotD[q]-wantD) > 1e-9 {
			t.Fatalf("query %d: pruned NN distance %v (idx %d) != brute force %v (idx %d)",
				q, gotD[q], gotIdx[q], wantD, wantIdx)
		}
	}
	if evaluated == 0 {
		t.Error("searcher performed no full evaluations")
	}
	if evaluated > int64(n*nq) {
		t.Errorf("searcher ran %d cDTW evaluations, more than refs × queries = %d", evaluated, n*nq)
	}
}

func TestLBNNSearcherPrunesObviousCases(t *testing.T) {
	// References far from the query except one: most should be pruned.
	m := 64
	refs := make([][]float64, 10)
	for i := range refs {
		refs[i] = make([]float64, m)
		for j := range refs[i] {
			refs[i][j] = 100 * float64(i+1)
		}
	}
	query := make([]float64, m) // all zeros; nearest is refs[0]
	s := NewLBNNSearcher(refs, 2)
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	before := obs.ReadCounters()
	idx, _ := s.NN(query)
	evaluated := obs.ReadCounters().Sub(before).DTW
	if idx != 0 {
		t.Errorf("NN idx = %d, want 0", idx)
	}
	if evaluated == 0 || evaluated >= int64(len(refs)) {
		t.Errorf("%d cDTW evaluations on well-separated references, want at least 1 and fewer than refs × queries = %d",
			evaluated, len(refs))
	}
}
