package cluster

import (
	"fmt"
	"math"

	"kshape/internal/core"
)

// Merge records one agglomeration step of a dendrogram. Cluster ids follow
// the scipy/R convention: ids 0..n-1 are the original observations; the
// merge recorded at Merges[t] creates cluster id n+t.
type Merge struct {
	// A and B are the merged cluster ids.
	A, B int
	// Height is the linkage distance at which the merge happened.
	Height float64
	// Size is the number of observations in the new cluster.
	Size int
}

// Dendrogram is the full merge tree of an agglomerative clustering over n
// observations (n-1 merges).
type Dendrogram struct {
	N      int
	Merges []Merge
}

// Dendrogram runs the complete agglomeration (down to one cluster) on a
// precomputed dissimilarity matrix and returns the merge tree, which can be
// cut at any k with Cut. This exposes the structure that Cluster's fixed-k
// interface discards, e.g. for choosing k by inspecting merge heights.
func (h *Hierarchical) Dendrogram(d [][]float64) (*Dendrogram, error) {
	n := len(d)
	if n == 0 {
		return nil, core.ErrNoData
	}
	w := make([][]float64, n)
	for i := range w {
		w[i] = append([]float64(nil), d[i]...)
	}
	size := make([]int, n)
	active := make([]bool, n)
	id := make([]int, n) // dendrogram id of each live row
	for i := 0; i < n; i++ {
		size[i] = 1
		active[i] = true
		id[i] = i
	}
	dg := &Dendrogram{N: n}
	for t := 0; t < n-1; t++ {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if active[j] && w[i][j] < best {
					best, bi, bj = w[i][j], i, j
				}
			}
		}
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
		dg.Merges = append(dg.Merges, Merge{
			A:      id[bi],
			B:      id[bj],
			Height: best,
			Size:   size[bi] + size[bj],
		})
		size[bi] += size[bj]
		active[bj] = false
		id[bi] = n + t
	}
	return dg, nil
}

// Cut returns the labels produced by stopping the agglomeration when k
// clusters remain — equivalent to cutting the tree just below the height of
// the (n-k)th merge. Labels are compacted to [0, k).
func (dg *Dendrogram) Cut(k int) ([]int, error) {
	n := dg.N
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", core.ErrBadK, k, n)
	}
	parent := make([]int, n+len(dg.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	// Apply the first n-k merges.
	for t := 0; t < n-k; t++ {
		m := dg.Merges[t]
		newID := n + t
		parent[find(m.A)] = newID
		parent[find(m.B)] = newID
	}
	labels := make([]int, n)
	compact := map[int]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		l, ok := compact[r]
		if !ok {
			l = len(compact)
			compact[r] = l
		}
		labels[i] = l
	}
	return labels, nil
}
