package cluster

import (
	"math"
	"math/rand"
	"testing"

	"kshape/internal/core"
	"kshape/internal/ts"
)

func TestFeaturesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 64)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	f := Features(x)
	if len(f) != 10 {
		t.Fatalf("features = %d, want 10", len(f))
	}
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("feature %d non-finite: %v", i, v)
		}
	}
	if empty := Features(nil); len(empty) != 10 {
		t.Errorf("empty-series features = %d", len(empty))
	}
}

func TestFeaturesDiscriminate(t *testing.T) {
	// A smooth sine and white noise must differ in spectral entropy and
	// lag-1 autocorrelation.
	m := 128
	rng := rand.New(rand.NewSource(2))
	sine := make([]float64, m)
	noise := make([]float64, m)
	for i := range sine {
		sine[i] = math.Sin(2 * math.Pi * 4 * float64(i) / float64(m))
		noise[i] = rng.NormFloat64()
	}
	fs := Features(sine)
	fn := Features(noise)
	const (
		idxACF1    = 4
		idxEntropy = 9
	)
	if fs[idxACF1] <= fn[idxACF1] {
		t.Errorf("sine acf1 %v should exceed noise acf1 %v", fs[idxACF1], fn[idxACF1])
	}
	if fs[idxEntropy] >= fn[idxEntropy] {
		t.Errorf("sine spectral entropy %v should be below noise %v", fs[idxEntropy], fn[idxEntropy])
	}
}

func TestFeaturesTrendSlope(t *testing.T) {
	x := make([]float64, 20)
	for i := range x {
		x[i] = 2 * float64(i)
	}
	f := Features(x)
	const idxSlope = 6
	if math.Abs(f[idxSlope]-2) > 1e-9 {
		t.Errorf("slope feature = %v, want 2", f[idxSlope])
	}
}

func TestFeatureMatrixColumnsStandardized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([][]float64, 20)
	for i := range data {
		data[i] = make([]float64, 32)
		for j := range data[i] {
			data[i][j] = rng.NormFloat64() * float64(i+1)
		}
	}
	feats := FeatureMatrix(data)
	for j := 0; j < len(feats[0]); j++ {
		col := make([]float64, len(feats))
		for i := range feats {
			col[i] = feats[i][j]
		}
		if mu := ts.Mean(col); math.Abs(mu) > 1e-9 {
			t.Errorf("feature %d mean = %v", j, mu)
		}
		sd := ts.Std(col)
		if sd != 0 && math.Abs(sd-1) > 1e-9 {
			t.Errorf("feature %d std = %v", j, sd)
		}
	}
	if out := FeatureMatrix(nil); len(out) != 0 {
		t.Error("empty input should give empty output")
	}
}

func TestFeatureBasedClustersGlobalStructure(t *testing.T) {
	// Classes differing in global statistics (periodic vs noisy vs
	// trending) are exactly what the feature baseline can separate.
	rng := rand.New(rand.NewSource(4))
	m := 64
	var data [][]float64
	var truth []int
	for c := 0; c < 3; c++ {
		for i := 0; i < 12; i++ {
			x := make([]float64, m)
			for j := range x {
				switch c {
				case 0:
					x[j] = math.Sin(2*math.Pi*3*float64(j)/float64(m)) + 0.05*rng.NormFloat64()
				case 1:
					x[j] = rng.NormFloat64()
				default:
					x[j] = 0.1*float64(j) + 0.05*rng.NormFloat64()
				}
			}
			data = append(data, ts.ZNormalize(x))
			truth = append(truth, c)
		}
	}
	c := NewFeatureBased()
	if c.Name() != "Features+k-means" {
		t.Error("metadata wrong")
	}
	if p := bestPurity(t, c, data, truth, 3, 5); p < 0.85 {
		t.Errorf("purity = %v", p)
	}
}

func TestFeatureBasedDropsCentroids(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data, _ := threeBlobs(5, 16, rng)
	res, err := NewFeatureBased().Cluster(data, core.Config{K: 3, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Centroids != nil {
		t.Error("feature-space centroids must not be exposed as series")
	}
}
