package cluster

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"kshape/internal/core"
	"kshape/internal/dist"
	"kshape/internal/ts"
)

// threeBlobs builds an easily separable Euclidean dataset: three classes of
// constant-ish level. Suitable for any distance measure.
func threeBlobs(nPerClass, m int, rng *rand.Rand) ([][]float64, []int) {
	var data [][]float64
	var labels []int
	protos := [][]float64{}
	for c := 0; c < 3; c++ {
		p := make([]float64, m)
		for i := range p {
			p[i] = math.Sin(2*math.Pi*float64(i)/float64(m) + float64(c)*2)
			if c == 1 {
				p[i] = math.Abs(p[i])
			}
		}
		protos = append(protos, p)
	}
	for c, proto := range protos {
		for i := 0; i < nPerClass; i++ {
			x := make([]float64, m)
			for j := range x {
				x[j] = proto[j] + 0.1*rng.NormFloat64()
			}
			data = append(data, ts.ZNormalize(x))
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

func TestAllClusterersSeparateEasyData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data, truth := threeBlobs(15, 48, rng)
	clusterers := []Clusterer{
		NewKAvgED(),
		NewKAvgSBD(),
		NewKShape(),
		NewPAM(dist.EDMeasure{}),
		NewPAM(dist.SBDMeasure{}),
		NewHierarchical(CompleteLinkage, dist.EDMeasure{}),
		NewHierarchical(AverageLinkage, dist.SBDMeasure{}),
		NewSpectral(dist.EDMeasure{}),
		NewSpectral(dist.SBDMeasure{}),
	}
	for _, c := range clusterers {
		t.Run(c.Name(), func(t *testing.T) {
			if p := bestPurity(t, c, data, truth, 3, 5); p < 0.85 {
				t.Errorf("%s purity = %v, want >= 0.85", c.Name(), p)
			}
		})
	}
}

// bestPurity runs a (possibly randomized) clusterer over several seeds and
// returns the best purity — mirroring the paper's averaging over random
// initializations for partitional and spectral methods.
func bestPurity(t *testing.T, c Clusterer, data [][]float64, truth []int, k, seeds int) float64 {
	t.Helper()
	best := 0.0
	for s := 0; s < seeds; s++ {
		res, err := c.Cluster(data, core.Config{K: k, Rand: rand.New(rand.NewSource(int64(s + 1)))})
		if err != nil {
			t.Fatal(err)
		}
		if p := purity(res.Labels, truth, k); p > best {
			best = p
		}
	}
	return best
}

func TestSlowClusterersSeparateEasyData(t *testing.T) {
	if testing.Short() {
		t.Skip("DTW-based clusterers are slow")
	}
	rng := rand.New(rand.NewSource(2))
	data, truth := threeBlobs(8, 32, rng)
	clusterers := []Clusterer{
		NewKDBA(),
		NewKSC(),
		NewKAvgDTW(),
		NewKShapeDTW(),
		NewPAM(dist.NewCDTWFrac("cDTW5", 0.05)),
		NewHierarchical(CompleteLinkage, dist.NewCDTWFrac("cDTW5", 0.05)),
		NewSpectral(dist.NewCDTWFrac("cDTW5", 0.05)),
	}
	for _, c := range clusterers {
		t.Run(c.Name(), func(t *testing.T) {
			if p := bestPurity(t, c, data, truth, 3, 5); p < 0.7 {
				t.Errorf("%s purity = %v, want >= 0.7", c.Name(), p)
			}
		})
	}
}

// TestKShapeDTWRuns runs the k-Shape+DTW ablation (shape-extraction
// centroids, DTW assignment) end to end.
func TestKShapeDTWRuns(t *testing.T) {
	data, _ := threeBlobs(6, 24, rand.New(rand.NewSource(14)))
	res, err := NewKShapeDTW().Cluster(data, core.Config{K: 2, Rand: rand.New(rand.NewSource(15))})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != len(data) || len(res.Centroids) != 2 {
		t.Errorf("%d labels, %d centroids; want %d and 2", len(res.Labels), len(res.Centroids), len(data))
	}
}

func TestClustererNames(t *testing.T) {
	want := map[string]Clusterer{
		"k-AVG+ED":    NewKAvgED(),
		"k-AVG+SBD":   NewKAvgSBD(),
		"k-AVG+DTW":   NewKAvgDTW(),
		"k-DBA":       NewKDBA(),
		"KSC":         NewKSC(),
		"k-Shape":     NewKShape(),
		"k-Shape+DTW": NewKShapeDTW(),
		"PAM+ED":      NewPAM(dist.EDMeasure{}),
		"PAM+SBD":     NewPAM(dist.SBDMeasure{}),
		"H-S+ED":      NewHierarchical(SingleLinkage, dist.EDMeasure{}),
		"H-A+ED":      NewHierarchical(AverageLinkage, dist.EDMeasure{}),
		"H-C+SBD":     NewHierarchical(CompleteLinkage, dist.SBDMeasure{}),
		"S+ED":        NewSpectral(dist.EDMeasure{}),
	}
	for name, c := range want {
		if c.Name() != name {
			t.Errorf("Name = %q, want %q", c.Name(), name)
		}
	}
}

func TestHierarchicalDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data, _ := threeBlobs(10, 24, rng)
	h := NewHierarchical(AverageLinkage, dist.EDMeasure{})
	a, err := h.Cluster(data, core.Config{K: 3, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Cluster(data, core.Config{K: 3, Rand: rand.New(rand.NewSource(999))})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("hierarchical clustering not deterministic across seeds")
		}
	}
}

func TestHierarchicalSingleLinkageChaining(t *testing.T) {
	// Single linkage is known to chain: a bridge point connecting two blobs
	// pulls them into one cluster while complete linkage resists. Build two
	// 1-D-ish blobs with a chain of bridge points.
	m := 8
	mk := func(level float64) []float64 {
		x := make([]float64, m)
		for i := range x {
			x[i] = level
		}
		return x
	}
	var data [][]float64
	for i := 0; i < 5; i++ {
		data = append(data, mk(float64(i)*0.1)) // blob A around 0
	}
	for i := 0; i < 5; i++ {
		data = append(data, mk(10+float64(i)*0.1)) // blob B around 10
	}
	// Bridge at 5 plus an outlier at 30.
	data = append(data, mk(5))
	data = append(data, mk(30))
	hs := NewHierarchical(SingleLinkage, dist.EDMeasure{})
	res, err := hs.Cluster(data, core.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// With single linkage the outlier forms its own cluster and everything
	// else chains together.
	if res.Labels[len(data)-1] == res.Labels[0] {
		t.Error("single linkage should isolate the far outlier")
	}
	if res.Labels[0] != res.Labels[5] {
		t.Error("single linkage should chain the bridged blobs together")
	}
}

func TestHierarchicalK1AndKn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data, _ := threeBlobs(4, 16, rng)
	h := NewHierarchical(CompleteLinkage, dist.EDMeasure{})
	res, err := h.Cluster(data, core.Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Labels {
		if l != 0 {
			t.Fatal("k=1 should give one cluster")
		}
	}
	res, err = h.Cluster(data, core.Config{K: len(data)})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range res.Labels {
		seen[l] = true
	}
	if len(seen) != len(data) {
		t.Errorf("k=n should give singletons, got %d clusters", len(seen))
	}
}

func TestHierarchicalErrors(t *testing.T) {
	h := NewHierarchical(CompleteLinkage, dist.EDMeasure{})
	if _, err := h.Cluster(nil, core.Config{K: 1}); err == nil {
		t.Error("empty data accepted")
	} else if !errors.Is(err, core.ErrNoData) {
		t.Errorf("empty data: %v, want ErrNoData", err)
	}
	if _, err := h.Cluster([][]float64{{1}}, core.Config{K: 2}); err == nil {
		t.Error("k > n accepted")
	} else if !errors.Is(err, core.ErrBadK) {
		t.Errorf("k > n: %v, want ErrBadK", err)
	}
}

func TestPAMCentroidsAreMedoids(t *testing.T) {
	// PAM centroids must be actual members of the dataset.
	rng := rand.New(rand.NewSource(5))
	data, _ := threeBlobs(10, 16, rng)
	res, err := NewPAM(dist.EDMeasure{}).Cluster(data, core.Config{K: 3, Rand: rand.New(rand.NewSource(6))})
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range res.Centroids {
		found := false
		for _, x := range data {
			same := true
			for i := range x {
				if x[i] != c[i] {
					same = false
					break
				}
			}
			if same {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("centroid %d is not a dataset member", j)
		}
	}
}

func TestPAMErrors(t *testing.T) {
	p := NewPAM(dist.EDMeasure{})
	if _, err := p.Cluster(nil, core.Config{K: 1, Rand: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("empty data accepted")
	} else if !errors.Is(err, core.ErrNoData) {
		t.Errorf("empty data: %v, want ErrNoData", err)
	}
	if _, err := p.Cluster([][]float64{{1}}, core.Config{K: 2, Rand: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("k > n accepted")
	} else if !errors.Is(err, core.ErrBadK) {
		t.Errorf("k > n: %v, want ErrBadK", err)
	}
	if _, err := p.Cluster([][]float64{{1}}, core.Config{K: 1}); err == nil {
		t.Error("nil rng accepted")
	} else if !errors.Is(err, core.ErrNoRand) {
		t.Errorf("nil rng: %v, want ErrNoRand", err)
	}
}

func TestPAMClusterWithMatrixMatchesCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data, _ := threeBlobs(8, 16, rng)
	p := NewPAM(dist.EDMeasure{})
	d := dist.PairwiseMatrix(dist.EDMeasure{}, data)
	a, err := p.Cluster(data, core.Config{K: 3, Rand: rand.New(rand.NewSource(42))})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.ClusterWithMatrix(data, d, core.Config{K: 3, Rand: rand.New(rand.NewSource(42))})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("matrix path and direct path disagree for the same seed")
		}
	}
}

func TestSpectralEmbedProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data, _ := threeBlobs(8, 16, rng)
	s := NewSpectral(dist.EDMeasure{})
	d := dist.PairwiseMatrix(dist.EDMeasure{}, data)
	emb, err := s.Embed(d, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(emb) != len(data) || len(emb[0]) != 3 {
		t.Fatalf("embedding shape %dx%d", len(emb), len(emb[0]))
	}
	for i, row := range emb {
		nrm := 0.0
		for _, v := range row {
			nrm += v * v
		}
		if math.Abs(nrm-1) > 1e-8 {
			t.Errorf("row %d norm = %v, want 1", i, math.Sqrt(nrm))
		}
	}
}

func TestSpectralIdenticalPoints(t *testing.T) {
	// Degenerate case: all points identical => sigma = 0 path.
	data := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	s := NewSpectral(dist.EDMeasure{})
	res, err := s.Cluster(data, core.Config{K: 2, Rand: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 3 {
		t.Errorf("labels = %v", res.Labels)
	}
}

func TestSpectralErrors(t *testing.T) {
	s := NewSpectral(dist.EDMeasure{})
	if _, err := s.Cluster(nil, core.Config{K: 1, Rand: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("empty data accepted")
	} else if !errors.Is(err, core.ErrNoData) {
		t.Errorf("empty data: %v, want ErrNoData", err)
	}
	if _, err := s.Cluster([][]float64{{1}}, core.Config{K: 2, Rand: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("k > n accepted")
	} else if !errors.Is(err, core.ErrBadK) {
		t.Errorf("k > n: %v, want ErrBadK", err)
	}
	if _, err := s.Cluster([][]float64{{1}}, core.Config{K: 1}); err == nil {
		t.Error("nil rng accepted")
	} else if !errors.Is(err, core.ErrNoRand) {
		t.Errorf("nil rng: %v, want ErrNoRand", err)
	}
}

func TestMedianOffDiagonal(t *testing.T) {
	d := [][]float64{
		{0, 1, 2},
		{1, 0, 3},
		{2, 3, 0},
	}
	if got := medianOffDiagonal(d); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := medianOffDiagonal([][]float64{{0}}); got != 0 {
		t.Errorf("single-point median = %v, want 0", got)
	}
}

func TestLinkageString(t *testing.T) {
	if SingleLinkage.String() != "H-S" || AverageLinkage.String() != "H-A" || CompleteLinkage.String() != "H-C" {
		t.Error("linkage names wrong")
	}
	if Linkage(42).String() != "Linkage(42)" {
		t.Error("unknown linkage string")
	}
}
