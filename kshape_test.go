package kshape

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// twoShapeClasses builds raw (unnormalized) data with two shape classes and
// random amplitude/offset/phase distortions.
func twoShapeClasses(nPerClass, m int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	var data [][]float64
	var labels []int
	for c := 0; c < 2; c++ {
		for i := 0; i < nPerClass; i++ {
			x := make([]float64, m)
			shift := rng.Intn(7) - 3
			amp := 0.5 + 3*rng.Float64()
			off := 10 * rng.NormFloat64()
			for j := range x {
				t := 2 * math.Pi * float64(j+shift) / float64(m)
				v := math.Sin(t)
				if c == 1 {
					v = math.Abs(v) - 0.5
				}
				x[j] = amp*v + off + 0.1*rng.NormFloat64()
			}
			data = append(data, x)
			labels = append(labels, c)
		}
	}
	return data, labels
}

func purity(pred, truth []int, k int) float64 {
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

func TestClusterDefaultKShape(t *testing.T) {
	data, truth := twoShapeClasses(25, 64, 1)
	res, err := Cluster(data, 2, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if p := purity(res.Labels, truth, 2); p < 0.9 {
		t.Errorf("purity = %v", p)
	}
	if len(res.Centroids) != 2 {
		t.Errorf("centroids = %d", len(res.Centroids))
	}
	if res.Iterations < 1 {
		t.Error("no iterations reported")
	}
}

func TestClusterReproducibleWithSeed(t *testing.T) {
	data, _ := twoShapeClasses(15, 48, 2)
	a, err := Cluster(data, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(data, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
}

func TestClusterNormalizationMatters(t *testing.T) {
	// Raw data has wild amplitude/offset differences; the automatic
	// z-normalization should make clustering work anyway.
	data, truth := twoShapeClasses(20, 64, 4)
	res, err := Cluster(data, 2, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if p := purity(res.Labels, truth, 2); p < 0.85 {
		t.Errorf("purity with auto-normalization = %v", p)
	}
	// Input must not be mutated by normalization.
	if data[0][0] == 0 && data[0][1] == 0 {
		t.Error("input appears zeroed")
	}
}

func TestClusterMethodSelection(t *testing.T) {
	data, truth := twoShapeClasses(10, 32, 6)
	for _, method := range []string{"k-AVG+ED", "PAM+SBD", "H-C+SBD", "S+SBD"} {
		res, err := Cluster(data, 2, Options{Seed: 8, Method: method})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if p := purity(res.Labels, truth, 2); p < 0.7 {
			t.Errorf("%s purity = %v", method, p)
		}
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster(nil, 2, Options{}); err == nil {
		t.Error("empty data accepted")
	}
	data, _ := twoShapeClasses(3, 16, 9)
	if _, err := Cluster(data, 2, Options{Method: "bogus"}); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := Cluster(data, 100, Options{}); err == nil {
		t.Error("k > n accepted")
	}
}

func TestMethodsRegistryComplete(t *testing.T) {
	reg := methods
	for _, name := range Methods() {
		if _, ok := reg[name]; !ok {
			t.Errorf("Methods lists %q but the registry lacks it", name)
		}
	}
	if len(reg) != len(Methods()) {
		t.Errorf("registry has %d entries, Methods lists %d", len(reg), len(Methods()))
	}
}

func TestSBDFacade(t *testing.T) {
	x := ZNormalize([]float64{0, 1, 2, 1, 0, -1, -2, -1})
	d, aligned := SBD(x, x)
	if d > 1e-9 {
		t.Errorf("SBD(x,x) = %v", d)
	}
	if len(aligned) != len(x) {
		t.Errorf("aligned length = %d", len(aligned))
	}
	if dd := SBDDistance(x, x); math.Abs(dd-d) > 1e-12 {
		t.Errorf("SBDDistance inconsistent: %v vs %v", dd, d)
	}
}

func TestShapeExtractRaggedMembersPanic(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "avg:") || !strings.Contains(msg, "member 1 has length 2") {
			t.Fatalf("panic = %q, want an avg: message naming member 1", msg)
		}
	}()
	ShapeExtract([][]float64{{1, 2, 3}, {1, 2}}, nil)
}

func TestShapeExtractFacade(t *testing.T) {
	data, _ := twoShapeClasses(10, 32, 10)
	members := make([][]float64, 10)
	for i := range members {
		members[i] = ZNormalize(data[i])
	}
	c := ShapeExtract(members, nil)
	if len(c) != 32 {
		t.Fatalf("centroid length = %d", len(c))
	}
	// The centroid should be closer (on average) to its members than a
	// random member of the other class is.
	avgD := 0.0
	for _, m := range members {
		avgD += SBDDistance(c, m)
	}
	avgD /= float64(len(members))
	other := ZNormalize(data[len(data)-1])
	otherD := 0.0
	for _, m := range members {
		otherD += SBDDistance(other, m)
	}
	otherD /= float64(len(members))
	if avgD >= otherD {
		t.Errorf("centroid avg SBD %v not better than cross-class %v", avgD, otherD)
	}
}

func TestPredict(t *testing.T) {
	data, truth := twoShapeClasses(15, 48, 11)
	res, err := Cluster(data, 2, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Predicting the training data must agree with the fitted labels.
	pred := Predict(res.Centroids, data, false)
	agree := 0
	for i := range pred {
		if pred[i] == res.Labels[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(pred)); frac < 0.95 {
		t.Errorf("predict/fit agreement = %v", frac)
	}
	// Fresh queries should land in shape-consistent clusters.
	fresh, freshTruth := twoShapeClasses(10, 48, 13)
	fp := Predict(res.Centroids, fresh, false)
	if p := purity(fp, freshTruth, 2); p < 0.85 {
		t.Errorf("out-of-sample purity = %v", p)
	}
	_ = truth
}

// TestPredictPanicsOnBadInput pins Predict's boundary: input with no
// nearest centroid panics with a kshape: message naming the row and the
// reason, instead of panicking inside the distance kernel or returning
// label -1.
func TestPredictPanicsOnBadInput(t *testing.T) {
	centroids := [][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}}
	huge := []float64{1.5e308, -1.7e308, 1.7e308, 1.6e308}
	cases := []struct {
		name      string
		centroids [][]float64
		queries   [][]float64
		skipNorm  bool
		want      string
	}{
		{"no-centroids", nil, [][]float64{{1, 2}}, false, "needs at least one centroid"},
		{"short-query", centroids, [][]float64{{1, 2, 3, 4}, {1, 2}}, false, "query 1 has length 2, want 4"},
		{"long-query", centroids, [][]float64{{1, 2, 3, 4, 5}}, false, "query 0 has length 5, want 4"},
		{"nan-query", centroids, [][]float64{{1, math.NaN(), 3, 4}}, false, "query 0 has a non-finite value at position 1"},
		{"inf-query", centroids, [][]float64{{1, 2, 3, 4}, {1, 2, math.Inf(-1), 4}}, true, "query 1 has a non-finite value at position 2"},
		{"ragged-centroids", [][]float64{{1, 2, 3, 4}, {1, 2, 3}}, [][]float64{{1, 2, 3, 4}}, false, "centroid 1 has length 3, want 4"},
		{"nan-centroid", [][]float64{{1, 2, 3, 4}, {math.NaN(), 2, 3, 4}}, [][]float64{{1, 2, 3, 4}}, false, "centroid 1 has a non-finite value at position 0"},
		{"empty-centroids", [][]float64{{}}, [][]float64{{}}, false, "centroid 0 has length 0"},
		{"overflowing-query", centroids, [][]float64{{1, 2, 3, 4}, huge}, true, "query 1 has no finite SBD to any centroid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "kshape:") || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic = %q, want a kshape: message containing %q", msg, tc.want)
				}
			}()
			Predict(tc.centroids, tc.queries, tc.skipNorm)
		})
	}
}

func TestClusterMaxIterations(t *testing.T) {
	data, _ := twoShapeClasses(15, 32, 14)
	res, err := Cluster(data, 2, Options{Seed: 15, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
}

func TestClusterRejectsBadInput(t *testing.T) {
	// Ragged lengths.
	if _, err := Cluster([][]float64{{1, 2, 3}, {1, 2}}, 2, Options{}); err == nil {
		t.Error("ragged input accepted")
	}
	// Non-finite values.
	if _, err := Cluster([][]float64{{1, math.NaN(), 3}, {1, 2, 3}}, 2, Options{}); err == nil {
		t.Error("NaN input accepted")
	}
	if _, err := Cluster([][]float64{{1, math.Inf(1), 3}, {1, 2, 3}}, 2, Options{}); err == nil {
		t.Error("Inf input accepted")
	}
	// Zero-length series.
	if _, err := Cluster([][]float64{{}, {}}, 2, Options{}); err == nil {
		t.Error("zero-length series accepted")
	}
}

func TestClusterConstantSeriesSurvive(t *testing.T) {
	// Constant (zero-variance) series z-normalize to zeros; clustering must
	// stay well defined and terminate.
	data := [][]float64{
		{5, 5, 5, 5, 5, 5, 5, 5},
		{5, 5, 5, 5, 5, 5, 5, 5},
		{0, 1, 0, -1, 0, 1, 0, -1},
		{0, 1, 0, -1, 0, 1, 0, -1},
	}
	res, err := Cluster(data, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 4 {
		t.Fatalf("labels = %v", res.Labels)
	}
	// The two sine series should share a cluster.
	if res.Labels[2] != res.Labels[3] {
		t.Errorf("identical sine series split across clusters: %v", res.Labels)
	}
}

// TestClusterAllConstantMembersGetSpikeCentroid pins the documented
// centroid of a k-Shape cluster whose members are all constant: the
// z-normalized unit spike at position 0, bit-identical for every worker
// count.
func TestClusterAllConstantMembersGetSpikeCentroid(t *testing.T) {
	for _, m := range []int{3, 64} {
		data := make([][]float64, 4)
		for i := range data {
			data[i] = make([]float64, m)
			for j := range data[i] {
				data[i][j] = float64(i) - 1.5
			}
		}
		spike := make([]float64, m)
		spike[0] = math.Sqrt(float64(m - 1))
		for j := 1; j < m; j++ {
			spike[j] = -1 / math.Sqrt(float64(m-1))
		}
		var first [][]float64
		for _, w := range []int{1, 2, 8} {
			res, err := Cluster(data, 2, Options{Seed: 1, Workers: w})
			if err != nil {
				t.Fatalf("m=%d workers=%d: %v", m, w, err)
			}
			for c, cen := range res.Centroids {
				for j := range cen {
					if math.Abs(cen[j]-spike[j]) > 1e-12 {
						t.Fatalf("m=%d workers=%d: centroid %d[%d] = %v, want spike value %v",
							m, w, c, j, cen[j], spike[j])
					}
				}
			}
			if first == nil {
				first = res.Centroids
				continue
			}
			for c := range first {
				for j := range first[c] {
					if math.Float64bits(first[c][j]) != math.Float64bits(res.Centroids[c][j]) {
						t.Fatalf("m=%d workers=%d: centroid %d differs from workers=1", m, w, c)
					}
				}
			}
		}
	}
}

func TestEstimateKFindsTrueK(t *testing.T) {
	data, _ := twoShapeClasses(20, 48, 21)
	k, sil, err := EstimateK(data, 5, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Errorf("estimated k = %d, want 2 (silhouette %v)", k, sil)
	}
	if sil <= 0 {
		t.Errorf("silhouette = %v, want > 0 on separable data", sil)
	}
}

func TestEstimateKErrors(t *testing.T) {
	if _, _, err := EstimateK([][]float64{{1, 2}}, 3, Options{}); err == nil {
		t.Error("too few series accepted")
	}
	data, _ := twoShapeClasses(5, 16, 22)
	if _, _, err := EstimateK(data, 1, Options{}); err == nil {
		t.Error("kMax < 2 accepted")
	}
	// kMax beyond n-1 is clamped, not an error.
	if _, _, err := EstimateK(data[:4], 10, Options{Seed: 1}); err != nil {
		t.Errorf("clamped kMax errored: %v", err)
	}
	// Bad rows are rejected before normalization (and before the SBD
	// matrix), naming the raw row and position.
	bad := []struct {
		name string
		data [][]float64
		want string
	}{
		{"ragged", [][]float64{{1, 2, 3, 4}, {2, 3, 4}, {1, 3, 2, 4}, {4, 3, 2, 1}}, "series 1 has length 3, want 4"},
		{"NaN", [][]float64{{1, 2, 3, 4}, {2, math.NaN(), 4, 5}, {1, 3, 2, 4}, {4, 3, 2, 1}}, "series 1 has a non-finite value at position 1"},
	}
	for _, tc := range bad {
		_, _, err := EstimateK(tc.data, 3, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s input: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestPAAFacadeComposesWithCluster(t *testing.T) {
	data, truth := twoShapeClasses(15, 64, 23)
	reduced := make([][]float64, len(data))
	for i, x := range data {
		reduced[i] = PAA(x, 16)
	}
	res, err := Cluster(reduced, 2, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p := purity(res.Labels, truth, 2); p < 0.85 {
		t.Errorf("purity on PAA-reduced data = %v", p)
	}
}

func TestClusterRestartsPicksBetterOptimum(t *testing.T) {
	data, truth := twoShapeClasses(20, 48, 31)
	best, err := ClusterRestarts(data, 2, 5, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The best-of-5 run must be at least as good (by inertia) as every
	// individual restart.
	for r := 0; r < 5; r++ {
		res, err := Cluster(data, 2, Options{Seed: 1 + int64(r)*1_000_003})
		if err != nil {
			t.Fatal(err)
		}
		if best.Inertia > res.Inertia+1e-9 {
			t.Errorf("restart %d has lower inertia %v than the chosen %v", r, res.Inertia, best.Inertia)
		}
	}
	if p := purity(best.Labels, truth, 2); p < 0.9 {
		t.Errorf("purity = %v", p)
	}
	if _, err := ClusterRestarts(nil, 2, 0, Options{}); err == nil {
		t.Error("empty data accepted")
	}
}

func TestClassify1NN(t *testing.T) {
	train, trainLabels := twoShapeClasses(15, 48, 41)
	queries, queryLabels := twoShapeClasses(10, 48, 42)
	for _, measure := range Measures() {
		pred, err := Classify1NN(train, trainLabels, queries, measure, false)
		if err != nil {
			t.Fatalf("%s: %v", measure, err)
		}
		correct := 0
		for i := range pred {
			if pred[i] == queryLabels[i] {
				correct++
			}
		}
		if acc := float64(correct) / float64(len(pred)); acc < 0.8 {
			t.Errorf("%s: accuracy %v on separable classes", measure, acc)
		}
	}
}

func TestClassify1NNErrors(t *testing.T) {
	train, labels := twoShapeClasses(3, 16, 43)
	if _, err := Classify1NN(nil, nil, train, "ED", false); err == nil {
		t.Error("empty train accepted")
	}
	if _, err := Classify1NN(train, labels[:2], train, "ED", false); err == nil {
		t.Error("misaligned labels accepted")
	}
	if _, err := Classify1NN(train, labels, train, "bogus", false); err == nil {
		t.Error("unknown measure accepted")
	}
	nanQuery := append([]float64(nil), train[0]...)
	nanQuery[3] = math.NaN()
	if _, err := Classify1NN(train, labels, [][]float64{nanQuery}, "SBD", false); err == nil {
		t.Error("NaN query accepted")
	}
	if _, err := Classify1NN(train, labels, [][]float64{train[0][:2]}, "SBD", false); err == nil {
		t.Error("wrong-length query accepted")
	}
	if _, err := Classify1NN([][]float64{train[0], train[1][:4]}, labels[:2], train, "ED", false); err == nil {
		t.Error("ragged training set accepted")
	}
	if _, err := Classify1NN([][]float64{{}}, labels[:1], [][]float64{{}}, "SBD", false); err == nil {
		t.Error("zero-length series accepted")
	}
	// Finite but unnormalized extremes overflow every ED to +Inf, leaving
	// the query without a nearest neighbour.
	huge := [][]float64{{1e200, -1e200, 1e200}}
	if _, err := Classify1NN(huge, labels[:1], [][]float64{{-1e200, 1e200, -1e200}}, "ED", true); err == nil {
		t.Error("query with no finite distance accepted")
	}
}

func TestClusterOnIterationAndTrace(t *testing.T) {
	data, _ := twoShapeClasses(15, 32, 21)

	calls := 0
	res, err := Cluster(data, 2, Options{
		Seed:         3,
		CollectTrace: true,
		OnIteration:  func(IterationStats) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Iterations {
		t.Errorf("OnIteration fired %d times, want %d (one per iteration)", calls, res.Iterations)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("CollectTrace set but Result.Trace is nil")
	}
	if tr.Method != "k-Shape" {
		t.Errorf("Trace.Method = %q, want k-Shape", tr.Method)
	}
	if len(tr.Iterations) != res.Iterations {
		t.Errorf("trace has %d iterations, result reports %d", len(tr.Iterations), res.Iterations)
	}
	if tr.Converged != res.Converged {
		t.Errorf("Trace.Converged = %v, result %v", tr.Converged, res.Converged)
	}
	if tr.TotalNS <= 0 {
		t.Errorf("Trace.TotalNS = %d, want > 0", tr.TotalNS)
	}
	// The optimized k-Shape loop runs on FFT cross-correlations: the
	// counter delta must show FFT and SBD work.
	if tr.Counters.FFT == 0 || tr.Counters.SBD == 0 {
		t.Errorf("trace counters missing kernel activity: %+v", tr.Counters)
	}
	for i, it := range tr.Iterations {
		if it.Iteration != i+1 {
			t.Errorf("trace iteration %d numbered %d", i, it.Iteration)
		}
	}
}

func TestClusterWithoutTraceLeavesCountersDisabled(t *testing.T) {
	data, _ := twoShapeClasses(10, 32, 5)
	res, err := Cluster(data, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("Result.Trace should be nil without CollectTrace")
	}
}

// TestClusterMaxIterationsUniform verifies that the iteration cap and the
// iteration callback reach every refinement-loop method through the
// registry dispatch, not just k-Shape.
func TestClusterMaxIterationsUniform(t *testing.T) {
	data, _ := twoShapeClasses(12, 32, 9)
	for _, method := range []string{
		"k-Shape", "k-AVG+ED", "k-AVG+SBD", "k-AVG+DTW", "k-DBA", "KSC", "k-Shape+DTW",
		"Features+k-means",
	} {
		calls := 0
		res, err := Cluster(data, 2, Options{
			Seed:          7,
			Method:        method,
			MaxIterations: 1,
			OnIteration:   func(IterationStats) { calls++ },
		})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if res.Iterations != 1 {
			t.Errorf("%s: iterations = %d, want 1", method, res.Iterations)
		}
		if calls != 1 {
			t.Errorf("%s: OnIteration fired %d times, want 1", method, calls)
		}
	}
}

func TestClusterTraceNonIterativeMethod(t *testing.T) {
	data, _ := twoShapeClasses(8, 32, 13)
	res, err := Cluster(data, 2, Options{Seed: 2, Method: "PAM+SBD", CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("CollectTrace set but Result.Trace is nil")
	}
	// PAM has no Lloyd refinement loop, so no per-iteration records — but
	// its SBD medoid evaluations must still show up in the counters.
	if len(tr.Iterations) != 0 {
		t.Errorf("PAM trace has %d iteration records, want 0", len(tr.Iterations))
	}
	if tr.Counters.SBD == 0 {
		t.Errorf("PAM+SBD trace recorded no SBD evaluations: %+v", tr.Counters)
	}
}
