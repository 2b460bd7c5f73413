package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"kshape/internal/core"
	"kshape/internal/dist"
	"kshape/internal/ts"
)

// The non-scalable methods (PAM, spectral) parallelize their matrix scans
// through internal/par; these tests pin the layer's guarantee — identical
// output for every worker count under a fixed seed — at the clusterer level.

func gaussianBlobs(nPerBlob, m int, rng *rand.Rand) [][]float64 {
	centers := [][]float64{make([]float64, m), make([]float64, m), make([]float64, m)}
	for j := 0; j < m; j++ {
		centers[1][j] = 3
		centers[2][j] = float64(j%5) - 2
	}
	var data [][]float64
	for _, c := range centers {
		for i := 0; i < nPerBlob; i++ {
			x := make([]float64, m)
			for j := range x {
				x[j] = c[j] + 0.3*rng.NormFloat64()
			}
			data = append(data, ts.ZNormalize(x))
		}
	}
	return data
}

func TestPAMDeterministicAcrossWorkers(t *testing.T) {
	blobs := gaussianBlobs(12, 24, rand.New(rand.NewSource(2)))
	// Every series twice: each copy's medoid cost ties its twin's exactly
	// under ED, so the medoid update's smaller-index tie rule decides.
	var dups [][]float64
	for _, x := range blobs {
		dups = append(dups, x, append([]float64(nil), x...))
	}
	// Two pairs whose members tie as each other's medoid: the rule must
	// elect the first member of each pair, whatever the initial medoids.
	pairs := [][]float64{{0, 0}, {1, 1}, {100, 100}, {101, 101}}
	for _, c := range []struct {
		name    string
		data    [][]float64
		measure dist.Measure
		k       int
		medoids [][]float64 // when set, the only allowed centroids
	}{
		{"blobs", blobs, dist.SBDMeasure{}, 3, nil},
		{"duplicates", dups, dist.EDMeasure{}, 3, nil},
		{"tied pairs", pairs, dist.EDMeasure{}, 2, [][]float64{pairs[0], pairs[2]}},
	} {
		run := func(workers int) *core.Result {
			res, err := NewPAM(c.measure).Cluster(c.data, core.Config{K: c.k, Rand: rand.New(rand.NewSource(9)), Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			return res
		}
		want := run(1)
		for j, cj := range want.Centroids {
			if c.medoids != nil && !slices.ContainsFunc(c.medoids, func(m []float64) bool { return slices.Equal(m, cj) }) {
				t.Errorf("%s: centroid %d = %v, want one of %v (ties go to the smaller index)", c.name, j, cj, c.medoids)
			}
		}
		for _, w := range []int{2, 8} {
			got := run(w)
			if got.Inertia != want.Inertia {
				t.Errorf("%s workers=%d: inertia %v, want %v (must be bit-identical)", c.name, w, got.Inertia, want.Inertia)
			}
			if !slices.Equal(got.Labels, want.Labels) {
				t.Fatalf("%s workers=%d: labels %v, want %v", c.name, w, got.Labels, want.Labels)
			}
			for j := range want.Centroids {
				if !slices.Equal(got.Centroids[j], want.Centroids[j]) {
					t.Fatalf("%s workers=%d: centroid %d differs", c.name, w, j)
				}
			}
		}
	}
}

func TestSpectralEmbedDeterministicAcrossWorkers(t *testing.T) {
	data := gaussianBlobs(8, 20, rand.New(rand.NewSource(3)))
	d := dist.PairwiseMatrixWorkers(dist.SBDMeasure{}, data, 1)
	embed := func(workers int) [][]float64 {
		emb, err := NewSpectral(dist.SBDMeasure{}).Embed(d, 3, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return emb
	}
	want := embed(1)
	for _, w := range []int{2, 8} {
		emb := embed(w)
		for i := range want {
			for j := range want[i] {
				if emb[i][j] != want[i][j] {
					t.Fatalf("workers=%d: embedding[%d][%d] = %v, want %v (must be bit-identical)",
						w, i, j, emb[i][j], want[i][j])
				}
			}
		}
	}
}

func TestSpectralClusterDeterministicAcrossWorkers(t *testing.T) {
	data := gaussianBlobs(8, 20, rand.New(rand.NewSource(4)))
	run := func(workers int) []int {
		s := NewSpectral(dist.EDMeasure{})
		res, err := s.Cluster(data, core.Config{K: 3, Rand: rand.New(rand.NewSource(6)), Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res.Labels
	}
	want := run(1)
	for _, w := range []int{2, 8} {
		labels := run(w)
		for i := range want {
			if labels[i] != want[i] {
				t.Fatalf("workers=%d: label[%d] = %d, want %d", w, i, labels[i], want[i])
			}
		}
	}
}

// TestRunOptsWorkersDeterministic drives the shared Run entry point — the
// path the public API uses — with every registered iterative method cheap
// enough for a unit test.
func TestRunOptsWorkersDeterministic(t *testing.T) {
	data := gaussianBlobs(8, 24, rand.New(rand.NewSource(8)))
	for _, c := range []Clusterer{NewKShape(), NewKAvgED(), NewKAvgSBD()} {
		run := func(workers int) []int {
			res, err := Run(c, data, core.Config{K: 3, Rand: rand.New(rand.NewSource(1)), Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.Name(), workers, err)
			}
			return res.Labels
		}
		want := run(1)
		for _, w := range []int{2, 8} {
			labels := run(w)
			for i := range want {
				if labels[i] != want[i] {
					t.Fatalf("%s workers=%d: label[%d] = %d, want %d", c.Name(), w, i, labels[i], want[i])
				}
			}
		}
	}
}
