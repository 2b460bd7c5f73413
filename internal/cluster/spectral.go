package cluster

import (
	"math"
	"sort"

	"kshape/internal/avg"
	"kshape/internal/core"
	"kshape/internal/dist"
	"kshape/internal/linalg"
	"kshape/internal/par"
)

// Spectral is the normalized spectral clustering of Ng, Jordan & Weiss
// (Section 2.4, "S+*" rows of Table 4):
//
//  1. build a Gaussian affinity A_ij = exp(−d_ij² / (2σ²)) with A_ii = 0,
//     where σ is the median pairwise distance (a standard parameter-free
//     choice for an unsupervised setting);
//  2. form the normalized affinity L = D^(−1/2)·A·D^(−1/2);
//  3. take the k eigenvectors of L with the largest eigenvalues as columns
//     of an n×k embedding, renormalize its rows to unit length;
//  4. run k-means (ED + arithmetic mean) on the embedded rows.
//
// Like PAM and hierarchical clustering it needs the full dissimilarity
// matrix plus an O(n³) eigendecomposition, which is exactly why the paper
// classifies it as non-scalable.
//
// Cluster's cfg.MaxIterations caps the embedded k-means, and cfg.Workers
// bounds the parallelism of the matrix build, the affinity construction,
// and the embedded k-means; results are identical for every worker count.
type Spectral struct {
	Measure dist.Measure
}

// NewSpectral returns normalized spectral clustering with the given
// distance measure (S+ED / S+cDTW / S+SBD in Table 4).
func NewSpectral(m dist.Measure) *Spectral { return &Spectral{Measure: m} }

// Name implements Clusterer.
func (s *Spectral) Name() string { return "S+" + s.Measure.Name() }

// Cluster implements Clusterer.
func (s *Spectral) Cluster(data [][]float64, cfg core.Config) (*core.Result, error) {
	return s.ClusterWithMatrix(dist.PairwiseMatrixWorkers(s.Measure, data, cfg.Workers), cfg)
}

// ClusterWithMatrix runs spectral clustering on a precomputed dissimilarity
// matrix (shared across runs by the experiment harness).
func (s *Spectral) ClusterWithMatrix(d [][]float64, cfg core.Config) (*core.Result, error) {
	if err := core.CheckK(cfg.K, len(d)); err != nil {
		return nil, err
	}
	emb, err := s.Embed(d, cfg.K, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return s.ClusterEmbedding(emb, cfg)
}

// ClusterEmbedding runs step 4 above: k-means (ED + arithmetic mean) on
// the rows of an embedding from Embed.
func (s *Spectral) ClusterEmbedding(emb [][]float64, cfg core.Config) (*core.Result, error) {
	// The embedded k-means is a step of the method, not its refinement
	// loop: it reports no iterations.
	cfg.OnIteration = nil
	res, err := core.Lloyd(emb, cfg,
		func(c, x []float64) float64 { return dist.ED(c, x) }, avg.Mean)
	if err != nil {
		return nil, err
	}
	// The embedded centroids are not meaningful time series; drop them so
	// callers do not mistake them for sequence representatives.
	res.Centroids = nil
	return res, nil
}

// Embed computes the row-normalized spectral embedding (steps 1-3 above)
// on up to workers goroutines, exposed separately for tests and for reuse
// across k-means restarts (ClusterEmbedding).
func (s *Spectral) Embed(d [][]float64, k, workers int) ([][]float64, error) {
	n := len(d)
	sigma := medianOffDiagonal(d)
	if sigma <= 0 {
		// All points identical: any embedding works; use a constant one.
		emb := make([][]float64, n)
		for i := range emb {
			emb[i] = make([]float64, k)
			emb[i][0] = 1
		}
		return emb, nil
	}
	// Affinity rows build in parallel: iteration i owns every (i, j) pair
	// with j > i and writes both mirrored entries, so the writes of
	// different iterations never overlap.
	a := linalg.NewSym(n)
	par.For(workers, n, func(i int) {
		for j := i + 1; j < n; j++ {
			v := math.Exp(-d[i][j] * d[i][j] / (2 * sigma * sigma))
			a.Data[i*n+j] = v
			a.Data[j*n+i] = v
		}
	})
	// Normalize: L = D^(-1/2) A D^(-1/2). Each degree is a serial
	// ascending row sum, so deg is worker-count independent.
	deg := make([]float64, n)
	par.For(workers, n, func(i int) {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += a.At(i, j)
		}
		if sum <= 0 {
			sum = 1 // isolated point; keep the row zero after scaling
		}
		deg[i] = 1 / math.Sqrt(sum)
	})
	par.For(workers, n, func(i int) {
		for j := 0; j < n; j++ {
			a.Data[i*n+j] *= deg[i] * deg[j]
		}
	})
	_, vecs := linalg.EigenDecompose(a)
	// Largest k eigenvectors (EigenDecompose sorts ascending).
	emb := make([][]float64, n)
	for i := range emb {
		emb[i] = make([]float64, k)
	}
	for c := 0; c < k; c++ {
		v := vecs[n-1-c]
		for i := 0; i < n; i++ {
			emb[i][c] = v[i]
		}
	}
	// Row renormalization.
	par.For(workers, n, func(i int) {
		nrm := 0.0
		for _, v := range emb[i] {
			nrm += v * v
		}
		nrm = math.Sqrt(nrm)
		if nrm > 0 {
			for c := range emb[i] {
				emb[i][c] /= nrm
			}
		}
	})
	return emb, nil
}

// medianOffDiagonal returns the median of the strictly-upper-triangle
// entries of d, or 0 when n < 2.
func medianOffDiagonal(d [][]float64) float64 {
	n := len(d)
	if n < 2 {
		return 0
	}
	vals := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := d[i][j]
			if math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}
