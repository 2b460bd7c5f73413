package eval

import (
	"math"
	"math/rand"
	"testing"

	"kshape/internal/dist"
	"kshape/internal/ts"
)

func TestRandIndexPerfect(t *testing.T) {
	pred := []int{0, 0, 1, 1, 2}
	if r := RandIndex(pred, pred); r != 1 {
		t.Errorf("RandIndex(identical) = %v", r)
	}
	// Label permutation must not matter.
	perm := []int{2, 2, 0, 0, 1}
	if r := RandIndex(pred, perm); r != 1 {
		t.Errorf("RandIndex(permuted) = %v", r)
	}
}

func TestRandIndexKnownValue(t *testing.T) {
	// Classic example: pred = {0,0,1,1}, truth = {0,1,0,1}.
	// Pairs: (0,1) same-pred diff-truth FP; (0,2) diff-pred same-truth FN;
	// (0,3) diff/diff TN; (1,2) diff/diff TN; (1,3) diff-pred same-truth FN;
	// (2,3) same-pred diff-truth FP. R = 2/6.
	pred := []int{0, 0, 1, 1}
	truth := []int{0, 1, 0, 1}
	if r := RandIndex(pred, truth); math.Abs(r-2.0/6.0) > 1e-12 {
		t.Errorf("RandIndex = %v, want %v", r, 2.0/6.0)
	}
}

func TestRandIndexBruteForce(t *testing.T) {
	// Compare the contingency-table formula against the O(n²) definition.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		pred := make([]int, n)
		truth := make([]int, n)
		for i := range pred {
			pred[i] = rng.Intn(4)
			truth[i] = rng.Intn(3)
		}
		agree := 0
		total := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				samePred := pred[i] == pred[j]
				sameTruth := truth[i] == truth[j]
				if samePred == sameTruth {
					agree++
				}
				total++
			}
		}
		want := float64(agree) / float64(total)
		if got := RandIndex(pred, truth); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: RandIndex = %v, brute force = %v", trial, got, want)
		}
	}
}

func TestRandIndexDegenerate(t *testing.T) {
	if r := RandIndex([]int{0}, []int{5}); r != 1 {
		t.Errorf("single point = %v", r)
	}
	if r := RandIndex(nil, nil); r != 1 {
		t.Errorf("empty = %v", r)
	}
}

func TestRandIndexPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RandIndex([]int{1}, []int{1, 2})
}

// shiftedClassData builds two labeled shape classes with phase jitter.
func shiftedClassData(nPerClass, m int, rng *rand.Rand) []ts.Series {
	protoA := make([]float64, m)
	protoB := make([]float64, m)
	for i := range protoA {
		protoA[i] = math.Sin(2 * math.Pi * float64(i) / float64(m))
		protoB[i] = math.Abs(math.Sin(2*math.Pi*float64(i)/float64(m))) - 0.5
	}
	var out []ts.Series
	for c, proto := range [][]float64{protoA, protoB} {
		for i := 0; i < nPerClass; i++ {
			x := ts.Shift(proto, rng.Intn(7)-3)
			for j := range x {
				x[j] += 0.1 * rng.NormFloat64()
			}
			out = append(out, ts.NewLabeled(ts.ZNormalize(x), c))
		}
	}
	return out
}

func TestOneNNAccuracySeparableClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := shiftedClassData(20, 48, rng)
	test := shiftedClassData(15, 48, rng)
	for _, m := range []dist.Measure{dist.EDMeasure{}, dist.SBDMeasure{}, dist.DTWMeasure{}} {
		acc := OneNNAccuracyWorkers(m, train, test, 0)
		if acc < 0.9 {
			t.Errorf("%s: accuracy = %v, want >= 0.9", m.Name(), acc)
		}
	}
}

func TestOneNNAccuracyEmpty(t *testing.T) {
	if acc := OneNNAccuracyWorkers(dist.EDMeasure{}, nil, nil, 0); acc != 0 {
		t.Errorf("empty accuracy = %v", acc)
	}
}

func TestOneNNAccuracyLBMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train := shiftedClassData(15, 32, rng)
	test := shiftedClassData(10, 32, rng)
	w := 3
	plain := OneNNAccuracyWorkers(dist.CDTWMeasure{Window: w}, train, test, 0)
	lb := OneNNAccuracyLB(w, train, test, 0)
	if math.Abs(plain-lb) > 1e-12 {
		t.Errorf("LB-pruned accuracy %v != plain %v", lb, plain)
	}
}

func TestTuneCDTWWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train := shiftedClassData(12, 32, rng)
	w, acc := TuneCDTWWindow(train, 0.10, 0)
	maxW := int(math.Round(0.10 * 32))
	if w < 0 || w > maxW {
		t.Errorf("window = %d outside [0, %d]", w, maxW)
	}
	if acc < 0.8 {
		t.Errorf("LOO accuracy = %v, want >= 0.8 on separable data", acc)
	}
}

func TestTuneCDTWWindowDegenerate(t *testing.T) {
	if w, acc := TuneCDTWWindow(nil, 0.05, 0); w != 0 || acc != 0 {
		t.Errorf("empty train: w=%d acc=%v", w, acc)
	}
	one := []ts.Series{ts.NewLabeled([]float64{1, 2}, 0)}
	if w, acc := TuneCDTWWindow(one, 0.05, 0); w != 0 || acc != 0 {
		t.Errorf("single train: w=%d acc=%v", w, acc)
	}
}

func TestTuneCDTWWindowPrefersWarpingWhenShifted(t *testing.T) {
	// With strong phase jitter and no noise, LOO should prefer w > 0.
	rng := rand.New(rand.NewSource(6))
	m := 40
	proto := make([]float64, m)
	for i := range proto {
		proto[i] = math.Sin(2 * math.Pi * float64(i) / float64(m))
	}
	var train []ts.Series
	for c := 0; c < 2; c++ {
		base := proto
		if c == 1 {
			base = make([]float64, m)
			for i := range base {
				base[i] = math.Sin(4 * math.Pi * float64(i) / float64(m))
			}
		}
		for i := 0; i < 10; i++ {
			x := ts.Shift(base, rng.Intn(5)-2)
			train = append(train, ts.NewLabeled(ts.ZNormalize(x), c))
		}
	}
	w, _ := TuneCDTWWindow(train, 0.2, 0)
	if w == 0 {
		t.Log("note: window 0 won; acceptable when ED already separates the data")
	}
}

func TestSilhouetteWellSeparated(t *testing.T) {
	// Two tight, far-apart groups: silhouette near 1 for the true labels,
	// and clearly lower for a scrambled labeling.
	d := [][]float64{
		{0, 0.1, 5, 5},
		{0.1, 0, 5, 5},
		{5, 5, 0, 0.1},
		{5, 5, 0.1, 0},
	}
	good := Silhouette(d, []int{0, 0, 1, 1})
	if good < 0.9 {
		t.Errorf("silhouette of true clustering = %v, want > 0.9", good)
	}
	bad := Silhouette(d, []int{0, 1, 0, 1})
	if bad >= good {
		t.Errorf("scrambled labeling silhouette %v not below true %v", bad, good)
	}
}

func TestSilhouetteDegenerate(t *testing.T) {
	d := [][]float64{{0, 1}, {1, 0}}
	if s := Silhouette(d, []int{0, 0}); s != 0 {
		t.Errorf("single cluster silhouette = %v, want 0", s)
	}
	// Singletons contribute 0.
	if s := Silhouette(d, []int{0, 1}); s != 0 {
		t.Errorf("all-singleton silhouette = %v, want 0", s)
	}
	if s := Silhouette(nil, nil); s != 0 {
		t.Errorf("empty silhouette = %v", s)
	}
}

func TestSilhouettePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Silhouette([][]float64{{0}}, []int{0, 1})
}

func blobData(perBlob, m int, rng *rand.Rand) ([][]float64, []int) {
	var data [][]float64
	var labels []int
	for b := 0; b < 3; b++ {
		for i := 0; i < perBlob; i++ {
			x := make([]float64, m)
			for j := range x {
				x[j] = float64(b)*10 + rng.NormFloat64()
			}
			data = append(data, x)
			labels = append(labels, b)
		}
	}
	return data, labels
}

func TestDaviesBouldinPrefersTrueClustering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data, truth := blobData(10, 8, rng)
	good := DaviesBouldin(data, truth, 3)
	scrambled := make([]int, len(truth))
	for i := range scrambled {
		scrambled[i] = i % 3
	}
	bad := DaviesBouldin(data, scrambled, 3)
	if good >= bad {
		t.Errorf("DB(true)=%v should be below DB(scrambled)=%v", good, bad)
	}
	if good <= 0 {
		t.Errorf("DB of noisy blobs should be positive, got %v", good)
	}
}

func TestDaviesBouldinDegenerate(t *testing.T) {
	data := [][]float64{{1}, {2}}
	if v := DaviesBouldin(data, []int{0, 0}, 2); v != 0 {
		t.Errorf("single live cluster DB = %v, want 0", v)
	}
}

func TestCalinskiHarabaszPrefersTrueClustering(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data, truth := blobData(10, 8, rng)
	good := CalinskiHarabasz(data, truth, 3)
	scrambled := make([]int, len(truth))
	for i := range scrambled {
		scrambled[i] = i % 3
	}
	bad := CalinskiHarabasz(data, scrambled, 3)
	if good <= bad {
		t.Errorf("CH(true)=%v should exceed CH(scrambled)=%v", good, bad)
	}
}

func TestCalinskiHarabaszDegenerate(t *testing.T) {
	data := [][]float64{{1}, {2}, {3}}
	if v := CalinskiHarabasz(data, []int{0, 0, 0}, 1); v != 0 {
		t.Errorf("k=1 CH = %v, want 0", v)
	}
	// Perfect clusters => zero within dispersion => defined as 0.
	if v := CalinskiHarabasz([][]float64{{1}, {1}, {5}, {5}}, []int{0, 0, 1, 1}, 2); v != 0 {
		t.Errorf("zero-within CH = %v, want 0", v)
	}
}

func TestValidityPanicsOnMismatch(t *testing.T) {
	for _, f := range []func(){
		func() { DaviesBouldin([][]float64{{1}}, []int{0, 1}, 2) },
		func() { CalinskiHarabasz([][]float64{{1}}, []int{0, 1}, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
