package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kshape/internal/avg"
	"kshape/internal/dist"
	"kshape/internal/obs"
	"kshape/internal/ts"
)

// twoClassShiftedData builds a dataset with two shape classes (sine vs
// square-ish pulse), each member randomly shifted and noised — exactly the
// out-of-phase regime k-Shape targets. Returns data and true labels.
func twoClassShiftedData(nPerClass, m int, rng *rand.Rand) ([][]float64, []int) {
	protoA := make([]float64, m)
	protoB := make([]float64, m)
	for i := range protoA {
		protoA[i] = math.Sin(2 * math.Pi * float64(i) / float64(m))
		if i > m/4 && i < m/2 {
			protoB[i] = 1
		}
	}
	var data [][]float64
	var labels []int
	for c, proto := range [][]float64{protoA, protoB} {
		for i := 0; i < nPerClass; i++ {
			s := rng.Intn(9) - 4
			x := ts.Shift(proto, s)
			for j := range x {
				x[j] += 0.15 * rng.NormFloat64()
			}
			data = append(data, ts.ZNormalize(x))
			labels = append(labels, c)
		}
	}
	return data, labels
}

// seededLabels returns a random source whose draws make rand.Intn(k)
// return labels in order, so a run starts from that assignment: Intn of
// k < 2³¹ reduces the top 31 bits of one Int63 draw modulo k.
func seededLabels(labels []int) *rand.Rand {
	return rand.New(&labelSource{labels: labels})
}

type labelSource struct {
	labels []int
	next   int
}

func (s *labelSource) Int63() int64 {
	l := s.labels[s.next]
	s.next++
	return int64(l) << 32
}

func (s *labelSource) Seed(int64) {}

// clusterPurity is the fraction of points whose cluster's majority class
// matches their own class.
func clusterPurity(pred, truth []int, k int) float64 {
	counts := make([]map[int]int, k)
	for i := range counts {
		counts[i] = map[int]int{}
	}
	for i, p := range pred {
		counts[p][truth[i]]++
	}
	correct := 0
	for _, c := range counts {
		best := 0
		for _, v := range c {
			if v > best {
				best = v
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(pred))
}

func TestKShapeSeparatesShapeClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data, truth := twoClassShiftedData(30, 64, rng)
	res, err := KShapeRun(data, Config{K: 2, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	if p := clusterPurity(res.Labels, truth, 2); p < 0.9 {
		t.Errorf("purity = %v, want >= 0.9", p)
	}
	if len(res.Centroids) != 2 || len(res.Centroids[0]) != 64 {
		t.Errorf("centroid shape wrong")
	}
}

func TestKShapeConvergesAndReportsIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data, _ := twoClassShiftedData(20, 32, rng)
	res, err := KShapeRun(data, Config{K: 2, Rand: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("expected convergence on small separable data")
	}
	if res.Iterations < 1 || res.Iterations > DefaultMaxIterations {
		t.Errorf("iterations = %d", res.Iterations)
	}
}

func TestKShapeDeterministicWithInitialLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data, _ := twoClassShiftedData(15, 32, rng)
	init := make([]int, len(data))
	for i := range init {
		init[i] = i % 2
	}
	run := func() *Result {
		res, err := Lloyd(data, Config{
			K:    2,
			Rand: seededLabels(init),
		}, func(c, x []float64) float64 { return dist.SBDDist(c, x) }, avg.ShapeExtraction)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same initial labels produced different clusterings")
		}
	}
}

func TestLloydValidation(t *testing.T) {
	ed := func(c, x []float64) float64 { return dist.ED(c, x) }
	mean := avg.Mean
	good := Config{K: 1, Rand: rand.New(rand.NewSource(1))}
	if _, err := Lloyd(nil, good, ed, mean); !errors.Is(err, ErrNoData) {
		t.Errorf("empty data: %v", err)
	}
	data := [][]float64{{1, 2}, {3, 4}}
	bad := good
	bad.K = 3
	if _, err := Lloyd(data, bad, ed, mean); !errors.Is(err, ErrBadK) {
		t.Errorf("k > n: %v", err)
	}
	bad = good
	bad.K = 0
	if _, err := Lloyd(data, bad, ed, mean); !errors.Is(err, ErrBadK) {
		t.Errorf("k = 0: %v", err)
	}
	if _, err := Lloyd(data, good, nil, mean); err == nil {
		t.Error("nil distance accepted")
	}
	if _, err := Lloyd(data, good, ed, nil); err == nil {
		t.Error("nil centroid accepted")
	}
	bad = good
	bad.Rand = nil
	if _, err := Lloyd(data, bad, ed, mean); err == nil {
		t.Error("nil rand accepted")
	} else if !errors.Is(err, ErrNoRand) {
		t.Errorf("nil rand: %v, want ErrNoRand", err)
	}
	ragged := [][]float64{{1, 2}, {3}}
	if _, err := Lloyd(ragged, good, ed, mean); err == nil {
		t.Error("ragged data accepted")
	} else if !errors.Is(err, ErrLength) {
		t.Errorf("ragged data: %v, want ErrLength", err)
	}
}

func TestLloydKEqualsN(t *testing.T) {
	data := [][]float64{
		ts.ZNormalize([]float64{1, 2, 3, 4}),
		ts.ZNormalize([]float64{4, 3, 2, 1}),
		ts.ZNormalize([]float64{1, -1, 1, -1}),
	}
	res, err := KShapeRun(data, Config{K: 3, Rand: rand.New(rand.NewSource(6))})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range res.Labels {
		seen[l] = true
	}
	if len(seen) != 3 {
		t.Errorf("k=n should produce singleton clusters, got labels %v", res.Labels)
	}
}

func TestLloydSingleCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data, _ := twoClassShiftedData(5, 16, rng)
	res, err := KShapeRun(data, Config{K: 1, Rand: rand.New(rand.NewSource(8))})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Labels {
		if l != 0 {
			t.Fatalf("labels = %v", res.Labels)
		}
	}
	if !res.Converged {
		t.Error("single cluster should converge immediately")
	}
}

func TestLloydEmptyClusterReseeded(t *testing.T) {
	// Force an initial assignment that starves cluster 2, and verify the
	// engine keeps all clusters non-empty at termination.
	rng := rand.New(rand.NewSource(9))
	data, _ := twoClassShiftedData(10, 32, rng)
	init := make([]int, len(data)) // everything in cluster 0
	res, err := Lloyd(data, Config{
		K:    3,
		Rand: seededLabels(init),
	}, func(c, x []float64) float64 { return dist.SBDDist(c, x) }, avg.ShapeExtraction)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for _, l := range res.Labels {
		counts[l]++
	}
	for j, c := range counts {
		if c == 0 {
			t.Errorf("cluster %d empty at termination", j)
		}
	}
}

func TestKShapeCentroidsZNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	data, _ := twoClassShiftedData(15, 32, rng)
	res, err := KShapeRun(data, Config{K: 2, Rand: rand.New(rand.NewSource(11))})
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range res.Centroids {
		if !ts.IsZNormalized(c, 1e-6) {
			t.Errorf("centroid %d not z-normalized", j)
		}
	}
}

func TestKShapeInertiaNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data, _ := twoClassShiftedData(10, 32, rng)
	res, err := KShapeRun(data, Config{K: 2, Rand: rand.New(rand.NewSource(13))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia < 0 {
		t.Errorf("inertia = %v", res.Inertia)
	}
}

func TestLloydMaxIterationsRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	data, _ := twoClassShiftedData(20, 32, rng)
	res, err := Lloyd(data, Config{
		K:             2,
		MaxIterations: 1,
		Rand:          rand.New(rand.NewSource(17)),
	}, func(c, x []float64) float64 { return dist.SBDDist(c, x) }, avg.ShapeExtraction)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
}

func TestConfigIterationCap(t *testing.T) {
	for _, tc := range []struct{ max, want int }{
		{0, DefaultMaxIterations}, {-3, DefaultMaxIterations}, {1, 1}, {250, 250},
	} {
		if got := (Config{MaxIterations: tc.max}).IterationCap(); got != tc.want {
			t.Errorf("MaxIterations %d: IterationCap() = %d, want %d", tc.max, got, tc.want)
		}
	}
}

func TestKShapeSpecializedMatchesGenericLloyd(t *testing.T) {
	// The optimized batched-FFT implementation must reproduce the generic
	// engine exactly for the same initial assignment.
	rng := rand.New(rand.NewSource(20))
	data, _ := twoClassShiftedData(15, 40, rng)
	init := make([]int, len(data))
	for i := range init {
		init[i] = (i * 7) % 3
	}
	generic, err := Lloyd(data, Config{
		K:    3,
		Rand: seededLabels(init),
	}, func(c, x []float64) float64 { return dist.SBDDist(c, x) }, avg.ShapeExtraction)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := KShapeRun(data, Config{K: 3, Rand: seededLabels(init)})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Iterations != generic.Iterations || fast.Converged != generic.Converged {
		t.Errorf("iteration trace differs: fast %d/%v vs generic %d/%v",
			fast.Iterations, fast.Converged, generic.Iterations, generic.Converged)
	}
	for i := range generic.Labels {
		if fast.Labels[i] != generic.Labels[i] {
			t.Fatalf("labels diverge at %d: %d vs %d", i, fast.Labels[i], generic.Labels[i])
		}
	}
	for j := range generic.Centroids {
		for p := range generic.Centroids[j] {
			if math.Abs(fast.Centroids[j][p]-generic.Centroids[j][p]) > 1e-9 {
				t.Fatalf("centroid %d diverges at %d", j, p)
			}
		}
	}
}

// TestKShapeInitValidation checks KShapeRun's input validation.
func TestKShapeInitValidation(t *testing.T) {
	data := [][]float64{{1, 2, 3}, {3, 2, 1}}
	if _, err := KShapeRun(data, Config{K: 2}); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := KShapeRun(nil, Config{K: 1}); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := KShapeRun(data, Config{K: 9}); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := KShapeRun([][]float64{{1, 2}, {1}}, Config{K: 2, Rand: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("ragged data accepted")
	}
}

// checkTrajectory validates the invariants every OnIteration trajectory
// must satisfy: one callback per executed iteration with 1-based numbering,
// cluster sizes partitioning the input, non-negative phase timings, zero
// churn exactly on the converged final iteration, and (for objectives whose
// refinement step is an exact minimizer, like k-means) non-increasing
// inertia across reseed-free iterations.
func checkTrajectory(t *testing.T, stats []obs.IterationStats, res *Result, n int, wantMonotone bool) {
	t.Helper()
	if len(stats) != res.Iterations {
		t.Fatalf("OnIteration fired %d times, want once per iteration (%d)", len(stats), res.Iterations)
	}
	for i, it := range stats {
		if it.Iteration != i+1 {
			t.Errorf("stats[%d].Iteration = %d, want %d", i, it.Iteration, i+1)
		}
		total := 0
		for _, s := range it.ClusterSizes {
			total += s
		}
		if total != n {
			t.Errorf("iteration %d cluster sizes sum to %d, want %d", it.Iteration, total, n)
		}
		if it.RefineNS < 0 || it.AssignNS < 0 {
			t.Errorf("iteration %d has negative phase time: refine=%d assign=%d", it.Iteration, it.RefineNS, it.AssignNS)
		}
		if wantMonotone && i > 0 && it.Reseeds == 0 {
			prev := stats[i-1].Inertia
			if it.Inertia > prev*(1+1e-9)+1e-12 {
				t.Errorf("inertia increased at iteration %d: %g -> %g", it.Iteration, prev, it.Inertia)
			}
		}
	}
	last := stats[len(stats)-1]
	if res.Converged && last.LabelChurn != 0 {
		t.Errorf("converged run ended with churn %d, want 0", last.LabelChurn)
	}
	if math.Abs(last.Inertia-res.Inertia) > 1e-9*(1+math.Abs(res.Inertia)) {
		t.Errorf("final iteration inertia %g != Result.Inertia %g", last.Inertia, res.Inertia)
	}
}

func TestLloydOnIterationMonotoneInertia(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data, _ := twoClassShiftedData(30, 64, rng)

	var stats []obs.IterationStats
	res, err := Lloyd(data, Config{
		K:           2,
		Rand:        rand.New(rand.NewSource(3)),
		OnIteration: func(s obs.IterationStats) { stats = append(stats, s) },
	}, dist.ED, func(members [][]float64, prev []float64) []float64 {
		if len(members) == 0 {
			return prev
		}
		return avg.Mean(members, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Fatalf("want a multi-iteration run to observe, got %d iterations", res.Iterations)
	}
	// ED assignment + mean refinement is exact k-means: the sum of squared
	// assignment distances (what IterationStats.Inertia records) must never
	// increase between reseed-free iterations.
	checkTrajectory(t, stats, res, len(data), true)
}

func TestKShapeRunOnIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data, _ := twoClassShiftedData(25, 64, rng)

	var stats []obs.IterationStats
	res, err := KShapeRun(data, Config{
		K:           2,
		Rand:        rand.New(rand.NewSource(5)),
		OnIteration: func(s obs.IterationStats) { stats = append(stats, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Shape extraction is not an exact SBD minimizer, so only the structural
	// invariants are asserted, not monotone inertia.
	checkTrajectory(t, stats, res, len(data), false)
}

func TestKShapeRunMaxIterationsLimitsCallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data, _ := twoClassShiftedData(20, 32, rng)

	calls := 0
	res, err := KShapeRun(data, Config{
		K:             2,
		Rand:          rand.New(rand.NewSource(4)),
		MaxIterations: 1,
		OnIteration:   func(obs.IterationStats) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 || calls != 1 {
		t.Errorf("iterations=%d callbacks=%d, want 1 and 1", res.Iterations, calls)
	}
}

// degenerateSeries draws a length-m series that is, with equal odds, all
// zero, constant, a single spike, a ramp, or Gaussian noise at a random
// scale.
func degenerateSeries(m int, rng *rand.Rand) []float64 {
	x := make([]float64, m)
	switch rng.Intn(5) {
	case 0:
	case 1:
		c := rng.NormFloat64() * 10
		for i := range x {
			x[i] = c
		}
	case 2:
		x[rng.Intn(m)] = rng.NormFloat64() * 100
	case 3:
		slope := rng.NormFloat64()
		for i := range x {
			x[i] = slope * float64(i)
		}
	default:
		scale := math.Exp(rng.NormFloat64() * 2)
		for i := range x {
			x[i] = scale * rng.NormFloat64()
		}
	}
	return x
}

// TestDriftBoundHolds is the property the assignment scan's pruning rests
// on: for any series x and any move of a centroid from c to c′,
// SBD(x, c′) ≥ SBD(x, c) − unitDrift(c, c′), on degenerate-heavy input
// (zero, constant and spike rows, unnormalized centroids, and near-ties
// where c′ is c nudged by 1e-9 or shifted by one step).
func TestDriftBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for trial := 0; trial < 400; trial++ {
		m := []int{1, 2, 3, 5, 8, 16, 31, 64}[rng.Intn(8)]
		xs := make([][]float64, 8)
		for i := range xs {
			xs[i] = degenerateSeries(m, rng)
		}
		batch := dist.NewSBDBatch(xs)
		c := degenerateSeries(m, rng)
		var next []float64
		switch rng.Intn(4) {
		case 0: // near-tie: a tiny nudge
			next = append([]float64(nil), c...)
			for i := range next {
				next[i] += 1e-9 * rng.NormFloat64()
			}
		case 1: // one step of shift
			next = ts.Shift(c, 1-2*rng.Intn(2))
		case 2: // the same shape at another scale
			next = append([]float64(nil), c...)
			for i := range next {
				next[i] *= math.Exp(rng.NormFloat64())
			}
		default:
			next = degenerateSeries(m, rng)
		}
		drift := unitDrift(c, next)
		q, qNext := batch.Query(c), batch.Query(next)
		for i := range xs {
			d, _ := q.Distance(i)
			dNext, _ := qNext.Distance(i)
			if dNext < d-drift-1e-12 {
				t.Fatalf("trial %d series %d (m=%d): SBD(x, c') = %v < SBD(x, c) - drift = %v - %v",
					trial, i, m, dNext, d, drift)
			}
			if !math.IsInf(drift, 1) {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("every drift was +Inf; the bound was never tested")
	}
}

// TestKShapePrunedPairsAccountForEveryPair pins the pruned-pair counter:
// on a run without reseeds, every iteration's scan either evaluates or
// prunes each of the n·k pairs, so SBD + sbd_pruned == n·k·Iterations —
// observed or not, since the run observer evaluates no SBD of its own.
// Observation costs only the top-2 rule's extra evaluations on the
// silhouette sample, at most its (k−1) other centroids per sampled series
// and iteration. A run that reseeds adds one alignment SBD per series a
// reseed moved and the refinement then realigns, so there the identity
// becomes n·k·Iterations ≤ SBD + sbd_pruned ≤ n·k·Iterations + reseeds.
// The exact SBD counts, unobserved and observed, are pinned too: a change
// to the pruning that moves them must explain the drift, like a golden's.
func TestKShapePrunedPairsAccountForEveryPair(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	for _, in := range []struct {
		name             string
		nPerClass, m     int
		dataSeed, seed   int64
		k                int
		reseeds          bool
		sbd, sbdObserved int64
	}{
		{"reseed-free", 40, 48, 3, 4, 3, false, 638, 1084},
		{"reseeding", 8, 32, 3, 3, 11, true, 88, 187},
	} {
		data, _ := twoClassShiftedData(in.nPerClass, in.m, rand.New(rand.NewSource(in.dataSeed)))
		k := in.k
		run := func(w int, observer string) (*Result, obs.Counters) {
			cfg := Config{K: k, Rand: rand.New(rand.NewSource(in.seed)), Workers: w}
			switch observer {
			case "callback":
				cfg.OnIteration = func(obs.IterationStats) {}
			case "recorder":
				prevRec := obs.SetRecorder(obs.NewRecorder(0))
				defer obs.SetRecorder(prevRec)
			}
			before := obs.ReadCounters()
			res, err := KShapeRun(data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res, obs.ReadCounters().Sub(before)
		}
		for _, w := range []int{1, 2, 8} {
			_, plain := run(w, "none")
			for _, observer := range []string{"none", "callback", "recorder"} {
				res, c := run(w, observer)
				want := int64(len(data) * k * res.Iterations)
				got := c.SBD + c.SBDPruned
				wantSBD := in.sbd
				if observer != "none" {
					wantSBD = in.sbdObserved
				}
				if c.SBD != wantSBD {
					t.Errorf("%s workers=%d %s: %d SBDs, want the pinned %d", in.name, w, observer, c.SBD, wantSBD)
				}
				if in.reseeds {
					if c.Reseeds == 0 || got == want {
						t.Fatalf("%s workers=%d %s: reseeds %d, excess %d; pick a run whose reseeds realign",
							in.name, w, observer, c.Reseeds, got-want)
					}
					if got < want || got > want+c.Reseeds {
						t.Errorf("%s workers=%d %s: sbd %d + sbd_pruned %d = %d, want within [n·k·iterations, +reseeds] = [%d, %d]",
							in.name, w, observer, c.SBD, c.SBDPruned, got, want, want+c.Reseeds)
					}
				} else {
					if c.Reseeds != 0 {
						t.Fatalf("%s workers=%d %s: run reseeded %d times; pick a reseed-free run", in.name, w, observer, c.Reseeds)
					}
					if c.SBDPruned == 0 {
						t.Errorf("%s workers=%d %s: nothing was pruned over %d iterations", in.name, w, observer, res.Iterations)
					}
					if got != want {
						t.Errorf("%s workers=%d %s: sbd %d + sbd_pruned %d = %d, want n·k·iterations = %d",
							in.name, w, observer, c.SBD, c.SBDPruned, got, want)
					}
				}
				if limit := int64(silhouetteSampleCap * (k - 1) * res.Iterations); c.SBD-plain.SBD > limit {
					t.Errorf("%s workers=%d %s: %d SBDs, %d more than unobserved; the sample allows at most %d",
						in.name, w, observer, c.SBD, c.SBD-plain.SBD, limit)
				}
			}
		}
	}
}

// assignOne runs the k-Shape assignment step for the one series x with
// label own against centroids, starting from x's bound row lb and the
// centroid drifts; top2 puts x in the silhouette sample. It returns the
// step, whose lb row, assignDist, labels and runnerUp hold the outcome,
// and the number of pairs the scan pruned.
func assignOne(x []float64, centroids [][]float64, lb, drift []float64, own int, top2 bool) (*kshapeStep, int64) {
	r := &loop{data: [][]float64{x}, k: len(centroids), m: len(x), workers: 1, labels: []int{own},
		centroids: centroids, assignDist: make([]float64, 1), drift: drift}
	if top2 {
		r.runnerUp = []float64{0}
	}
	s := newKShapeStep(r).(*kshapeStep)
	copy(s.lb, lb)
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	before := obs.ReadCounters()
	s.assign()
	return s, obs.ReadCounters().Sub(before).SBDPruned
}

// headTailBound is the head-tail spectral bound on SBD(x, c) that the
// assignment scan of x computes for centroid c.
func headTailBound(x, c []float64) float64 {
	b := dist.NewSBDBatch([][]float64{x})
	var q dist.QueryHead
	var h dist.SeriesHead
	b.Query(c).LoadHead(&q)
	b.LoadHead(0, b.TailNorms()[0], &h)
	return dist.HeadTailBound(&q, &h)
}

// TestScanCentroidsPrunesOnlyProvablyFartherCentroids drives the
// assignment step on one series: centroids whose decayed bound clears the
// own distance are skipped and their bound decays by the drift; in top-2
// mode only a bound that clears the runner-up prunes, and the runner-up
// comes back exact; and a bound equal to the best distance is never
// pruned. These cases use centroids the head-tail bound cannot separate
// from x (x, its time reversal and its negation share x's spectrum
// magnitudes and norm, so that bound is 0 up to rounding), so only the
// drift bounds prune. A last case checks the head-tail bound itself: a
// centroid it skips has a bound above the own distance by more than the
// margin, and the row holds that bound afterwards.
func TestScanCentroidsPrunesOnlyProvablyFartherCentroids(t *testing.T) {
	data, _ := twoClassShiftedData(6, 32, rand.New(rand.NewSource(41)))
	x := data[0]
	reversed := slices.Clone(x)
	slices.Reverse(reversed)
	centroids := [][]float64{x, reversed, ts.Scale(x, -1)}
	batch := dist.NewSBDBatch([][]float64{x})
	exact := make([]float64, len(centroids))
	for j, c := range centroids {
		exact[j], _ = batch.Query(c).Distance(0)
		if ht := headTailBound(x, c); ht > exact[0]+dist.ScanMargin {
			t.Fatalf("centroid %d: head-tail bound %v clears the own distance %v", j, ht, exact[0])
		}
	}

	s, pruned := assignOne(x, centroids, []float64{0, 5, 5}, []float64{0, 0.5, 0.5}, 0, false)
	if pruned != 2 || s.labels[0] != 0 || s.assignDist[0] != exact[0] {
		t.Fatalf("scan = (%v, %d, pruned %d), want (%v, 0, pruned 2)", s.assignDist[0], s.labels[0], pruned, exact[0])
	}
	if s.lb[0] != exact[0] || s.lb[1] != 4.5 || s.lb[2] != 4.5 {
		t.Errorf("bounds after the scan = %v, want [%v 4.5 4.5]", s.lb, exact[0])
	}

	// Top-2 mode: order the other two centroids so that 1 is the
	// runner-up and 2 the farthest; each bound below is a true lower bound.
	if exact[1] > exact[2] {
		centroids[1], centroids[2] = centroids[2], centroids[1]
		exact[1], exact[2] = exact[2], exact[1]
	}
	if !(exact[0]+dist.ScanMargin < exact[1] && exact[1]+dist.ScanMargin < exact[2]) {
		t.Fatalf("distances %v are not separated by the margin", exact)
	}
	still := []float64{0, 0, 0}
	for _, c := range []struct {
		name       string
		bound2     float64
		top2       bool
		wantPruned int64
		wantRunner bool
	}{
		{"bound clears the runner-up", exact[2], true, 1, true},
		{"bound clears only the best", exact[1], true, 0, true},
		{"nearest-only prunes on the best", exact[1], false, 1, false},
	} {
		s, pruned := assignOne(x, centroids, []float64{0, 0, c.bound2}, still, 0, c.top2)
		if s.assignDist[0] != exact[0] || s.labels[0] != 0 || pruned != c.wantPruned {
			t.Errorf("%s: scan = (%v, %d, pruned %d), want (%v, 0, pruned %d)",
				c.name, s.assignDist[0], s.labels[0], pruned, exact[0], c.wantPruned)
		}
		if c.wantRunner && s.runnerUp[0] != exact[1] {
			t.Errorf("%s: runner-up = %v, want the exact %v", c.name, s.runnerUp[0], exact[1])
		}
	}

	// A bound that only ties the own distance must not prune: the tie
	// rule may need the smaller index.
	lb := []float64{exact[0], exact[0] + dist.ScanMargin, 0}
	if _, pruned := assignOne(x, centroids, lb, still, 2, false); pruned != 0 {
		t.Errorf("bounds within the margin pruned %d centroids", pruned)
	}

	// The head-tail bound: centroids of the other class, whose rows
	// (0 here) never prune, are skipped exactly when their head-tail
	// bound clears the own distance by more than the margin, and keep
	// that bound in the row.
	centroids = [][]float64{x, data[7], data[9]}
	s, pruned = assignOne(x, centroids, []float64{0, 0, 0}, still, 0, false)
	if s.labels[0] != 0 || s.assignDist[0] != exact[0] {
		t.Fatalf("head-tail scan = (%v, %d), want (%v, 0)", s.assignDist[0], s.labels[0], exact[0])
	}
	wantPruned := int64(0)
	for j, c := range centroids[1:] {
		j++
		ht := headTailBound(x, c)
		if d, _ := batch.Query(c).Distance(0); ht > d+dist.ScanMargin {
			t.Fatalf("centroid %d: head-tail bound %v above its SBD %v", j, ht, d)
		}
		if ht <= exact[0]+dist.ScanMargin {
			continue
		}
		wantPruned++
		if math.Float64bits(s.lb[j]) != math.Float64bits(ht) {
			t.Errorf("centroid %d: row holds %v after the head-tail skip, want the bound %v", j, s.lb[j], ht)
		}
	}
	if wantPruned == 0 || pruned != wantPruned {
		t.Errorf("head-tail scan pruned %d centroids, want %d (and at least one)", pruned, wantPruned)
	}
}

// boundCheckStep wraps the k-Shape step and, after every assignment,
// checks each stored bound against the exact SBD to its centroid.
type boundCheckStep struct {
	*kshapeStep
	t      *testing.T
	checks int
}

func (s *boundCheckStep) assign() {
	s.kshapeStep.assign()
	for i, x := range s.data {
		for j, c := range s.centroids {
			if lb, d := s.lb[i*s.k+j], dist.SBDDist(c, x); lb > d+1e-12 {
				s.t.Fatalf("bound on SBD(x_%d, c_%d) = %v exceeds the exact %v", i, j, lb, d)
			}
			s.checks++
		}
	}
}

// TestKShapeBoundsStayBelowExactSBD checks the scan's invariant over whole
// runs, reseeds included: after every assignment, every stored bound —
// exact, decayed by one drift or by several — is at most the exact SBD to
// the current centroid.
func TestKShapeBoundsStayBelowExactSBD(t *testing.T) {
	data, _ := twoClassShiftedData(30, 40, rand.New(rand.NewSource(43)))
	for _, cfg := range []Config{
		{K: 4, Rand: rand.New(rand.NewSource(44))},
		{K: 3, Rand: seededLabels(make([]int, len(data))), MaxIterations: 8}, // reseeds
	} {
		var checker *boundCheckStep
		if _, err := iterate(data, cfg, func(r *loop) step {
			checker = &boundCheckStep{kshapeStep: newKShapeStep(r).(*kshapeStep), t: t}
			return checker
		}); err != nil {
			t.Fatal(err)
		}
		if checker.checks == 0 {
			t.Fatal("no bound was checked")
		}
	}
}
