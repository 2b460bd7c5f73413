package avg

import (
	"math"
	"math/rand"
	"testing"

	"kshape/internal/dist"
	"kshape/internal/ts"
)

func randCluster(n, m int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, m)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}

// sineCluster builds n noisy, randomly shifted copies of a sine prototype —
// the "similar but out of phase" regime that shape extraction targets.
func sineCluster(n, m int, maxShift int, noise float64, rng *rand.Rand) ([][]float64, []float64) {
	proto := make([]float64, m)
	for i := range proto {
		proto[i] = math.Sin(4 * math.Pi * float64(i) / float64(m))
	}
	out := make([][]float64, n)
	for i := range out {
		s := rng.Intn(2*maxShift+1) - maxShift
		x := ts.Shift(proto, s)
		for j := range x {
			x[j] += noise * rng.NormFloat64()
		}
		out[i] = ts.ZNormalize(x)
	}
	return out, ts.ZNormalize(proto)
}

func TestMean(t *testing.T) {
	c := [][]float64{{1, 2}, {3, 4}}
	got := Mean(c, nil)
	if got[0] != 2 || got[1] != 3 {
		t.Errorf("Mean = %v", got)
	}
	if Mean(nil, nil) != nil {
		t.Error("Mean of empty should be nil")
	}
}

func TestMeanAveragerEmptyClusterUsesRefLength(t *testing.T) {
	out := Mean(nil, make([]float64, 5))
	if len(out) != 5 {
		t.Errorf("len = %d, want 5", len(out))
	}
}

func TestMeanMinimizesSquaredED(t *testing.T) {
	// The arithmetic mean is the Steiner point under ED (Section 2.1).
	rng := rand.New(rand.NewSource(1))
	c := randCluster(10, 8, rng)
	mean := Mean(c, nil)
	obj := func(w []float64) float64 {
		s := 0.0
		for _, x := range c {
			s += dist.SquaredED(w, x)
		}
		return s
	}
	base := obj(mean)
	for trial := 0; trial < 20; trial++ {
		w := append([]float64(nil), mean...)
		w[rng.Intn(len(w))] += 0.1 * rng.NormFloat64()
		if obj(w) < base-1e-9 {
			t.Fatalf("perturbation beats the mean: %v < %v", obj(w), base)
		}
	}
}

func TestShapeExtractionRecoversPrototype(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cluster, proto := sineCluster(30, 64, 6, 0.1, rng)
	cen := ShapeExtraction(cluster, proto)
	// The extracted shape should be very close (under SBD) to the prototype.
	d, _ := dist.SBD(proto, cen)
	if d > 0.05 {
		t.Errorf("SBD(prototype, extracted) = %v, want < 0.05", d)
	}
	if !ts.IsZNormalized(cen, 1e-6) {
		t.Error("centroid not z-normalized")
	}
}

func TestShapeExtractionBeatsMeanOnShiftedData(t *testing.T) {
	// With random shifts, the arithmetic mean smears the shape; shape
	// extraction should stay closer to the prototype (Figure 4's point).
	rng := rand.New(rand.NewSource(3))
	cluster, proto := sineCluster(40, 64, 10, 0.05, rng)
	cen := ShapeExtraction(cluster, proto)
	mean := ts.ZNormalize(Mean(cluster, nil))
	dShape, _ := dist.SBD(proto, cen)
	dMean, _ := dist.SBD(proto, mean)
	if dShape >= dMean {
		t.Errorf("shape extraction (%v) should beat arithmetic mean (%v) on shifted data", dShape, dMean)
	}
}

func TestShapeExtractionEmptyCluster(t *testing.T) {
	if got := ShapeExtraction(nil, nil); got != nil {
		t.Errorf("empty cluster, nil ref: %v", got)
	}
	got := ShapeExtraction(nil, make([]float64, 4))
	if len(got) != 4 {
		t.Errorf("empty cluster with ref: len %d", len(got))
	}
}

func TestShapeExtractionSingleMember(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := ts.ZNormalize(randSeriesAvg(32, rng))
	cen := ShapeExtraction([][]float64{x}, nil)
	d, _ := dist.SBD(x, cen)
	if d > 1e-6 {
		t.Errorf("single-member centroid should equal the member (SBD %v)", d)
	}
}

func TestShapeExtractionZeroRefSkipsAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cluster, _ := sineCluster(10, 32, 3, 0.1, rng)
	a := ShapeExtraction(cluster, nil)
	b := ShapeExtraction(cluster, make([]float64, 32))
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("nil ref and zero ref should behave identically")
		}
	}
}

func randSeriesAvg(m int, rng *rand.Rand) []float64 {
	x := make([]float64, m)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestDBAConvergesToPrototypeUnderWarping(t *testing.T) {
	// Members are time-warped versions of a prototype; DBA should land near
	// the prototype in DTW distance.
	rng := rand.New(rand.NewSource(6))
	m := 48
	proto := make([]float64, m)
	for i := range proto {
		proto[i] = math.Sin(2 * math.Pi * float64(i) / float64(m))
	}
	cluster := make([][]float64, 15)
	for i := range cluster {
		x := make([]float64, m)
		for j := range x {
			// Local non-linear warp: jittered sampling position.
			pos := float64(j) + 2*rng.Float64() - 1
			if pos < 0 {
				pos = 0
			}
			if pos > float64(m-1) {
				pos = float64(m - 1)
			}
			lo := int(pos)
			frac := pos - float64(lo)
			hi := lo
			if lo < m-1 {
				hi = lo + 1
			}
			x[j] = proto[lo]*(1-frac) + proto[hi]*frac + 0.05*rng.NormFloat64()
		}
		cluster[i] = x
	}
	// Five refinement passes, each seeded with the previous average.
	var got []float64
	for pass := 0; pass < 5; pass++ {
		got = DBA(cluster, got)
	}
	if d := dist.DTW(proto, got); d > 1.0 {
		t.Errorf("DTW(proto, DBA) = %v, want < 1.0", d)
	}
	// DBA should beat the plain arithmetic mean under the DTW objective.
	mean := Mean(cluster, nil)
	objDBA, objMean := 0.0, 0.0
	for _, x := range cluster {
		dd := dist.DTW(got, x)
		objDBA += dd * dd
		dm := dist.DTW(mean, x)
		objMean += dm * dm
	}
	if objDBA > objMean {
		t.Errorf("DBA objective %v worse than mean objective %v", objDBA, objMean)
	}
}

func TestDBAEmptyAndInit(t *testing.T) {
	if DBA(nil, nil) != nil {
		t.Error("empty cluster, nil init should give nil")
	}
	init := []float64{1, 2, 3}
	got := DBA(nil, init)
	if len(got) != 3 || &got[0] == &init[0] {
		t.Error("empty cluster should copy init")
	}
}

func TestDBAIdenticalMembersFixedPoint(t *testing.T) {
	x := []float64{0, 1, 0, -1, 0}
	cluster := [][]float64{x, x, x}
	got := DBA(cluster, nil)
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-9 {
			t.Fatalf("DBA of identical members = %v, want %v", got, x)
		}
	}
}

func TestDBAAveragerDefaults(t *testing.T) {
	// k-DBA's fixed setting is one pass of unconstrained DTW from the
	// first member. Here the diagonal path maps each member point to its
	// own coordinate, so the result is the coordinate-wise mean.
	got := DBA([][]float64{{1, 2}, {3, 4}}, nil)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("DBA = %v, want [2 3]", got)
	}
}

func TestKSCDistanceScaleInvariance(t *testing.T) {
	// d(x, a*x) == 0 for any positive scale a: the pairwise scaling
	// invariance KSC offers.
	rng := rand.New(rand.NewSource(9))
	x := randSeriesAvg(40, rng)
	y := ts.Scale(x, 3.5)
	d, aligned := KSCDistance(x, y)
	if d > 1e-9 {
		t.Errorf("KSC distance to scaled copy = %v", d)
	}
	for i := range x {
		if math.Abs(aligned[i]-x[i]) > 1e-9 {
			t.Errorf("aligned+scaled copy diverges at %d", i)
			break
		}
	}
}

func TestKSCDistanceShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randSeriesAvg(64, rng)
	y := ts.Shift(x, 5)
	d, _ := KSCDistance(x, y)
	// Zero padding costs a little mass at the boundary; distance stays small.
	if d > 0.35 {
		t.Errorf("KSC distance to shifted copy = %v", d)
	}
	dSelf, _ := KSCDistance(x, x)
	if dSelf > 1e-12 {
		t.Errorf("self distance = %v", dSelf)
	}
}

func TestKSCDistanceDegenerate(t *testing.T) {
	d, aligned := KSCDistance([]float64{0, 0, 0}, []float64{1, 2, 3})
	if d != 1 {
		t.Errorf("zero query distance = %v, want 1", d)
	}
	if len(aligned) != 3 {
		t.Errorf("aligned len = %d", len(aligned))
	}
	if d, _ := KSCDistance(nil, nil); d != 0 {
		t.Errorf("empty distance = %v", d)
	}
}

func TestKSCCentroidRecoversPrototype(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cluster, proto := sineCluster(25, 48, 4, 0.1, rng)
	cen := KSCCentroid(cluster, proto)
	d, _ := dist.SBD(proto, cen)
	if d > 0.05 {
		t.Errorf("SBD(proto, KSC centroid) = %v", d)
	}
	if !ts.IsZNormalized(cen, 1e-6) {
		t.Error("KSC centroid not z-normalized")
	}
}

func TestKSCCentroidEmpty(t *testing.T) {
	if KSCCentroid(nil, nil) != nil {
		t.Error("empty cluster, nil ref")
	}
	if got := KSCCentroid(nil, make([]float64, 4)); len(got) != 4 {
		t.Error("empty cluster with ref")
	}
	// All-zero members: centroid must stay defined.
	got := KSCCentroid([][]float64{make([]float64, 4)}, nil)
	if len(got) != 4 {
		t.Errorf("zero-member centroid len = %d", len(got))
	}
}
