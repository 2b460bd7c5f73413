package cluster

import (
	"math"
	"slices"

	"kshape/internal/core"
	"kshape/internal/dist"
	"kshape/internal/par"
)

// PAM is the Partitioning Around Medoids implementation of k-medoids
// (Kaufman & Rousseeuw), the strongest non-scalable partitional baseline of
// Table 4. It computes the full n×n dissimilarity matrix up front — the
// scalability bottleneck the paper highlights — then alternates between
// assigning every series to its nearest medoid and re-electing, within each
// cluster, the member minimizing the summed dissimilarity to the others.
//
// Initial medoids are sampled uniformly without replacement, so repeated
// runs average over initializations exactly like the k-means variants.
//
// Cluster's cfg.MaxIterations caps the alternation, and cfg.Workers bounds
// the parallelism of the matrix build, the assignment step, and the
// medoid-update cost scans; results are identical for every worker count.
type PAM struct {
	Measure dist.Measure
}

// NewPAM returns PAM combined with the given distance measure
// (PAM+ED / PAM+cDTW / PAM+SBD in Table 4).
func NewPAM(m dist.Measure) *PAM { return &PAM{Measure: m} }

// Name implements Clusterer.
func (p *PAM) Name() string { return "PAM+" + p.Measure.Name() }

// Cluster implements Clusterer.
func (p *PAM) Cluster(data [][]float64, cfg core.Config) (*core.Result, error) {
	return p.ClusterWithMatrix(data, dist.PairwiseMatrixWorkers(p.Measure, data, cfg.Workers), cfg)
}

// ClusterWithMatrix runs PAM on a precomputed dissimilarity matrix, which
// the experiment harness uses to share one matrix across runs.
func (p *PAM) ClusterWithMatrix(data [][]float64, d [][]float64, cfg core.Config) (*core.Result, error) {
	if err := core.CheckK(cfg.K, len(data)); err != nil {
		return nil, err
	}
	if err := core.CheckRand(cfg.Rand); err != nil {
		return nil, err
	}
	n, k := len(data), cfg.K
	medoids := cfg.Rand.Perm(n)[:k]
	labels := make([]int, n)
	prev := make([]int, n)
	cost, best := make([]float64, n), make([]float64, k)
	res := &core.Result{}
	for iter, maxIter := 0, cfg.IterationCap(); iter < maxIter; iter++ {
		copy(prev, labels)
		// Assignment: nearest medoid, in parallel across points (the
		// medoid scan is ascending with a strict comparison, so labels
		// never depend on the worker count).
		par.For(cfg.Workers, n, func(i int) {
			best, bestJ := math.Inf(1), 0
			for j, med := range medoids {
				if dd := d[i][med]; dd < best {
					best, bestJ = dd, j
				}
			}
			labels[i] = bestJ
		})
		// Medoid update: the member minimizing within-cluster
		// dissimilarity. Each candidate's summed dissimilarity to its own
		// cluster is computed in parallel; an ascending scan with a strict
		// comparison then picks each cluster's medoid, so ties go to the
		// smaller index and NaN or +Inf costs are never chosen. An emptied
		// cluster (possible with duplicate points) keeps its medoid.
		par.For(cfg.Workers, n, func(cand int) {
			c := 0.0
			for i := 0; i < n; i++ {
				if labels[i] == labels[cand] {
					c += d[cand][i]
				}
			}
			cost[cand] = c
		})
		for j := range best {
			best[j] = math.Inf(1)
		}
		for cand, j := range labels {
			if cost[cand] < best[j] {
				best[j], medoids[j] = cost[cand], cand
			}
		}
		res.Iterations = iter + 1
		if iter > 0 && slices.Equal(labels, prev) {
			res.Converged = true
			break
		}
	}
	res.Labels = labels
	res.Centroids = make([][]float64, k)
	for j, med := range medoids {
		res.Centroids[j] = append([]float64(nil), data[med]...)
	}
	for i, l := range labels {
		dd := d[i][medoids[l]]
		res.Inertia += dd * dd
	}
	return res, nil
}
