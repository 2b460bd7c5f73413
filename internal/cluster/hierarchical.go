package cluster

import (
	"fmt"
	"math"

	"kshape/internal/core"
	"kshape/internal/dist"
)

// Linkage selects the agglomerative merge criterion (Section 2.4).
type Linkage int

const (
	// SingleLinkage merges on the minimum pairwise distance between
	// clusters ("H-S" in Table 4).
	SingleLinkage Linkage = iota
	// AverageLinkage merges on the mean pairwise distance ("H-A").
	AverageLinkage
	// CompleteLinkage merges on the maximum pairwise distance ("H-C").
	CompleteLinkage
)

// String returns the table prefix for the linkage.
func (l Linkage) String() string {
	switch l {
	case SingleLinkage:
		return "H-S"
	case AverageLinkage:
		return "H-A"
	case CompleteLinkage:
		return "H-C"
	}
	return fmt.Sprintf("Linkage(%d)", int(l))
}

// Hierarchical is agglomerative hierarchical clustering: it starts from
// singleton clusters and repeatedly merges the closest pair under the
// linkage criterion until k clusters remain — equivalent to cutting the
// dendrogram at the minimum height that yields k clusters, as the paper's
// experimental setup does. The method is deterministic.
//
// Inter-cluster distances are maintained with the Lance-Williams update in
// O(n²) space; each merge rescans the active pairs, so the agglomeration is
// O(n³) worst-case with a small constant — immaterial next to the O(n²)
// distance-measure evaluations that dominate for cDTW/SBD.
type Hierarchical struct {
	Linkage Linkage
	Measure dist.Measure
}

// NewHierarchical returns hierarchical clustering with the given linkage
// and distance measure (e.g. H-C+SBD).
func NewHierarchical(l Linkage, m dist.Measure) *Hierarchical {
	return &Hierarchical{Linkage: l, Measure: m}
}

// Name implements Clusterer.
func (h *Hierarchical) Name() string { return h.Linkage.String() + "+" + h.Measure.Name() }

// Cluster implements Clusterer. Only cfg.K and cfg.Workers (the matrix
// build's parallelism) apply: the method is deterministic and has no
// iteration loop.
func (h *Hierarchical) Cluster(data [][]float64, cfg core.Config) (*core.Result, error) {
	return h.ClusterWithMatrix(data, dist.PairwiseMatrixWorkers(h.Measure, data, cfg.Workers), cfg.K)
}

// ClusterWithMatrix runs the agglomeration on a precomputed dissimilarity
// matrix (shared across methods by the experiment harness). The matrix is
// not modified.
func (h *Hierarchical) ClusterWithMatrix(data [][]float64, d [][]float64, k int) (*core.Result, error) {
	if err := core.CheckK(k, len(data)); err != nil {
		return nil, err
	}
	n := len(data)
	// Working inter-cluster distance matrix and live-cluster bookkeeping.
	w := make([][]float64, n)
	for i := range w {
		w[i] = append([]float64(nil), d[i]...)
	}
	size := make([]int, n)
	active := make([]bool, n)
	parentOf := make([]int, n) // for label extraction via union-find
	for i := 0; i < n; i++ {
		size[i] = 1
		active[i] = true
		parentOf[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parentOf[x] != x {
			parentOf[x] = find(parentOf[x])
		}
		return parentOf[x]
	}
	remaining := n
	for remaining > k {
		// Find the closest active pair.
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if w[i][j] < best {
					best, bi, bj = w[i][j], i, j
				}
			}
		}
		// Merge bj into bi with the Lance-Williams update.
		ni, nj := float64(size[bi]), float64(size[bj])
		for x := 0; x < n; x++ {
			if !active[x] || x == bi || x == bj {
				continue
			}
			var nd float64
			switch h.Linkage {
			case SingleLinkage:
				nd = math.Min(w[bi][x], w[bj][x])
			case CompleteLinkage:
				nd = math.Max(w[bi][x], w[bj][x])
			case AverageLinkage:
				nd = (ni*w[bi][x] + nj*w[bj][x]) / (ni + nj)
			default:
				return nil, fmt.Errorf("cluster: unknown linkage %d", int(h.Linkage))
			}
			w[bi][x] = nd
			w[x][bi] = nd
		}
		size[bi] += size[bj]
		active[bj] = false
		parentOf[find(bj)] = find(bi)
		remaining--
	}
	// Compact the surviving roots into labels 0..k-1.
	rootLabel := map[int]int{}
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		r := find(i)
		l, ok := rootLabel[r]
		if !ok {
			l = len(rootLabel)
			rootLabel[r] = l
		}
		labels[i] = l
	}
	res := &core.Result{Labels: labels, Converged: true, Iterations: n - remaining}
	// Report per-cluster arithmetic means as representatives for inspection.
	if m := len(data[0]); m > 0 {
		sums := make([][]float64, k)
		counts := make([]int, k)
		for j := range sums {
			sums[j] = make([]float64, m)
		}
		for i, l := range labels {
			counts[l]++
			for t, v := range data[i] {
				sums[l][t] += v
			}
		}
		for j := range sums {
			if counts[j] > 0 {
				for t := range sums[j] {
					sums[j][t] /= float64(counts[j])
				}
			}
		}
		res.Centroids = sums
	}
	return res, nil
}
