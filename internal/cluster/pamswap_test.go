package cluster

import (
	"math"
	"math/rand"
	"testing"

	"kshape/internal/core"
	"kshape/internal/dist"
)

// blobMatrix builds an ED dissimilarity matrix over three well-separated
// 1-D blobs, returning the matrix and the true labels.
func blobMatrix(perBlob int, rng *rand.Rand) ([][]float64, []int) {
	var pts []float64
	var truth []int
	for b := 0; b < 3; b++ {
		center := float64(b) * 100
		for i := 0; i < perBlob; i++ {
			pts = append(pts, center+rng.NormFloat64())
			truth = append(truth, b)
		}
	}
	n := len(pts)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = math.Abs(pts[i] - pts[j])
		}
	}
	return d, truth
}

func TestBuildSwapFindsBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, truth := blobMatrix(10, rng)
	medoids, cost := BuildSwap(d, 3)
	if len(medoids) != 3 {
		t.Fatalf("medoids = %v", medoids)
	}
	labels := make([]int, len(d))
	for i := range d {
		for j, m := range medoids {
			if d[i][m] < d[i][medoids[labels[i]]] {
				labels[i] = j
			}
		}
	}
	if p := purity(labels, truth, 3); p != 1 {
		t.Errorf("purity = %v, want 1 on separated blobs", p)
	}
	if cost <= 0 {
		t.Errorf("cost = %v", cost)
	}
	// Each medoid must come from a distinct blob.
	seen := map[int]bool{}
	for _, m := range medoids {
		seen[truth[m]] = true
	}
	if len(seen) != 3 {
		t.Errorf("medoids %v do not cover all blobs", medoids)
	}
}

func TestBuildSwapDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, _ := blobMatrix(8, rng)
	m1, c1 := BuildSwap(d, 3)
	m2, c2 := BuildSwap(d, 3)
	if c1 != c2 {
		t.Errorf("costs differ: %v vs %v", c1, c2)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("medoids differ: %v vs %v", m1, m2)
		}
	}
}

func TestBuildSwapNeverWorseThanAlternating(t *testing.T) {
	// BUILD+SWAP is a strictly stronger local search, so its final cost
	// must not exceed the best alternating k-medoids run across seeds.
	rng := rand.New(rand.NewSource(3))
	data, _ := threeBlobs(8, 16, rng)
	d := dist.PairwiseMatrix(dist.EDMeasure{}, data)
	_, swapCost := BuildSwap(d, 3)
	p := NewPAM(dist.EDMeasure{})
	bestAlt := math.Inf(1)
	for seed := int64(0); seed < 5; seed++ {
		res, err := p.ClusterWithMatrix(data, d, core.Config{K: 3, Rand: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		if cost := medoidCost(d, res.Labels, 3); cost < bestAlt {
			bestAlt = cost
		}
	}
	if swapCost > bestAlt+1e-9 {
		t.Errorf("BUILD+SWAP cost %v worse than alternating best %v", swapCost, bestAlt)
	}
}

// medoidCost computes the k-medoids objective of a labeling: for each
// cluster, the best member is elected medoid and members pay their distance
// to it.
func medoidCost(d [][]float64, labels []int, k int) float64 {
	total := 0.0
	for c := 0; c < k; c++ {
		var members []int
		for i, l := range labels {
			if l == c {
				members = append(members, i)
			}
		}
		if len(members) == 0 {
			continue
		}
		best := math.Inf(1)
		for _, cand := range members {
			cost := 0.0
			for _, m := range members {
				cost += d[cand][m]
			}
			if cost < best {
				best = cost
			}
		}
		total += best
	}
	return total
}

func TestBuildSwapPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BuildSwap([][]float64{{0}}, 2)
}

func TestBuildSwapKEqualsN(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d, _ := blobMatrix(2, rng)
	medoids, cost := BuildSwap(d, len(d))
	if len(medoids) != len(d) {
		t.Fatalf("medoids = %d", len(medoids))
	}
	if cost != 0 {
		t.Errorf("k=n cost = %v, want 0", cost)
	}
}

func TestDendrogramStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data, truth := threeBlobs(6, 16, rng)
	d := dist.PairwiseMatrix(dist.EDMeasure{}, data)
	h := NewHierarchical(AverageLinkage, dist.EDMeasure{})
	dg, err := h.Dendrogram(d)
	if err != nil {
		t.Fatal(err)
	}
	n := len(data)
	if dg.N != n || len(dg.Merges) != n-1 {
		t.Fatalf("dendrogram shape: N=%d merges=%d", dg.N, len(dg.Merges))
	}
	// The final merge must contain all observations.
	if dg.Merges[n-2].Size != n {
		t.Errorf("final merge size = %d, want %d", dg.Merges[n-2].Size, n)
	}
	// Cutting at k=3 must match ClusterWithMatrix labels up to relabeling.
	cut, err := dg.Cut(3)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := h.ClusterWithMatrix(data, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !samePartition(cut, direct.Labels) {
		t.Error("dendrogram cut disagrees with direct clustering")
	}
	if p := purity(cut, truth, 3); p < 0.9 {
		t.Errorf("cut purity = %v", p)
	}
	// Heights of single/complete/average linkage are monotone for these
	// reducible linkages.
	for i := 1; i < len(dg.Merges); i++ {
		if h, prev := dg.Merges[i].Height, dg.Merges[i-1].Height; h < prev-1e-9 {
			t.Errorf("heights not monotone at %d: %v < %v", i, h, prev)
		}
	}
}

func TestDendrogramCutExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data, _ := threeBlobs(3, 8, rng)
	d := dist.PairwiseMatrix(dist.EDMeasure{}, data)
	h := NewHierarchical(CompleteLinkage, dist.EDMeasure{})
	dg, err := h.Dendrogram(d)
	if err != nil {
		t.Fatal(err)
	}
	all, err := dg.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range all {
		if l != 0 {
			t.Fatalf("k=1 cut = %v", all)
		}
	}
	singletons, err := dg.Cut(len(data))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range singletons {
		seen[l] = true
	}
	if len(seen) != len(data) {
		t.Errorf("k=n cut should be singletons: %v", singletons)
	}
	if _, err := dg.Cut(0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := dg.Cut(len(data) + 1); err == nil {
		t.Error("k>n accepted")
	}
}

// samePartition reports whether two labelings induce the same partition.
func samePartition(a, b []int) bool {
	mapping := map[int]int{}
	reverse := map[int]int{}
	for i := range a {
		if m, ok := mapping[a[i]]; ok {
			if m != b[i] {
				return false
			}
		} else {
			if _, ok := reverse[b[i]]; ok {
				return false
			}
			mapping[a[i]] = b[i]
			reverse[b[i]] = a[i]
		}
	}
	return true
}
