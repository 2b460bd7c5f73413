// Package dist implements the time-series distance measures evaluated in
// the k-Shape paper (Sections 2.3 and 3.1): Euclidean distance (ED),
// Dynamic Time Warping (DTW), constrained DTW with a Sakoe-Chiba band
// (cDTW), the LB_Keogh lower bound used to prune 1-NN search, the
// cross-correlation normalizations NCCb/NCCu/NCCc, and the shape-based
// distance SBD with its three implementation variants from Table 2
// (optimized FFT, FFT without power-of-two padding, and naive O(m²)).
//
// Every FFT cross-correlation runs on the shared real-input plans of
// internal/fft (fft.Plan): one-shot pairs through RFFT.Correlate, fixed
// collections through the spectrum cache SBDBatch. Both share one
// denominator (nccDen), one zero-norm convention (degenerate), and one
// lag scan (scanCC, four independent lanes that reproduce the one-lane
// ascending scan's first maximum), so a per-pair SBD equals the batch
// result bit for bit. Every lower-bounded nearest search runs one exact
// pruned search (Scan): k-Shape's assignment on drift bounds, then
// head-tail spectral bounds; SBD 1-NN (SBDNearest) on spectral bounds,
// which one reference-major pass computes for a block of queries, then,
// at l ≥ 128, phase bounds that keep the 16 lowest bins' phases; and cDTW
// 1-NN (LBNNSearcher) on LB_Keogh.
package dist

import (
	"kshape/internal/obs"
	"kshape/internal/par"
)

// Measure is a dissimilarity between two equal-length time series. A
// smaller value means more similar; implementations define their own range
// (e.g. SBD is in [0, 2], ED in [0, ∞)).
type Measure interface {
	// Name returns the short identifier used in experiment tables
	// (e.g. "ED", "SBD", "cDTW5").
	Name() string
	// Distance returns the dissimilarity of x and y.
	Distance(x, y []float64) float64
}

// Func adapts a plain function to the Measure interface.
type Func struct {
	Label string
	Fn    func(x, y []float64) float64
}

// Name implements Measure.
func (f Func) Name() string { return f.Label }

// Distance implements Measure.
func (f Func) Distance(x, y []float64) float64 { return f.Fn(x, y) }

// NearestIndices returns, for every query, the index of its nearest series
// in refs under d — NNIndex per query, ties toward the smaller index, -1
// when refs is empty — with queries spread over workers (par.Resolve
// semantics). SBDMeasure runs on the spectrum cache (SBDNearest: one
// transform per reference, shared by all queries), which gives the same
// indices. The result is identical for every worker count.
func NearestIndices(d Measure, refs, queries [][]float64, workers int) []int {
	if _, ok := d.(SBDMeasure); ok && len(refs) > 0 && len(refs[0]) > 0 {
		return SBDNearest(refs, queries, workers)
	}
	out := make([]int, len(queries))
	par.For(workers, len(queries), func(i int) {
		out[i], _ = NNIndex(d, queries[i], refs)
	})
	return out
}

// PairwiseMatrix computes the full symmetric n×n dissimilarity matrix of
// data under d, parallelized across all CPUs. This is the matrix that
// non-scalable methods (PAM, hierarchical, spectral) require as input —
// the paper's main scalability critique of those methods.
func PairwiseMatrix(d Measure, data [][]float64) [][]float64 {
	return PairwiseMatrixWorkers(d, data, 0)
}

// PairwiseMatrixWorkers is PairwiseMatrix with an explicit degree of
// parallelism (par.Resolve semantics: <= 0 means runtime.NumCPU(), 1 means
// serial). The result is identical for every worker count: each upper-
// triangle entry is computed exactly once and mirrored afterwards.
func PairwiseMatrixWorkers(d Measure, data [][]float64, workers int) [][]float64 {
	defer obs.StartPhase(obs.PhasePairwiseMatrix)()
	n := len(data)
	out := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range out {
		out[i] = backing[i*n : (i+1)*n]
	}
	// The optimized SBD routes through the spectrum cache: one forward
	// transform per series instead of two per pair, pooled per-worker
	// scratch, and a half-size inverse per pair.
	if _, ok := d.(SBDMeasure); ok && n > 0 && len(data[0]) > 0 {
		NewSBDBatch(data).PairwiseInto(out, workers)
		return out
	}
	// Row i costs n-1-i evaluations; par's dynamic chunk scheduling keeps
	// workers busy despite the triangular skew.
	par.For(workers, n, func(i int) {
		for j := i + 1; j < n; j++ {
			out[i][j] = d.Distance(data[i], data[j])
		}
	})
	// Mirror the upper triangle.
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			out[i][j] = out[j][i]
		}
	}
	return out
}
