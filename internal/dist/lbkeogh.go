package dist

import "math"

// Envelope computes the upper and lower running envelopes of y for a
// Sakoe-Chiba band of half-width window:
//
//	upper[i] = max(y[i-window .. i+window])
//	lower[i] = min(y[i-window .. i+window])
//
// It uses the Lemire streaming min/max algorithm with monotonic deques,
// which is O(m) regardless of the window size.
func Envelope(y []float64, window int) (upper, lower []float64) {
	m := len(y)
	upper = make([]float64, m)
	lower = make([]float64, m)
	if m == 0 {
		return upper, lower
	}
	if window < 0 {
		window = 0
	}
	// Monotonic deques of indices: maxDq decreasing values, minDq increasing.
	maxDq := make([]int, 0, m)
	minDq := make([]int, 0, m)
	// Process positions so that when computing envelope[i] the deques cover
	// indices [i-window, i+window].
	for i := 0; i < m+window; i++ {
		if i < m {
			for len(maxDq) > 0 && y[maxDq[len(maxDq)-1]] <= y[i] {
				maxDq = maxDq[:len(maxDq)-1]
			}
			maxDq = append(maxDq, i)
			for len(minDq) > 0 && y[minDq[len(minDq)-1]] >= y[i] {
				minDq = minDq[:len(minDq)-1]
			}
			minDq = append(minDq, i)
		}
		out := i - window
		if out < 0 || out >= m {
			continue
		}
		// Expire indices left of the window.
		for maxDq[0] < out-window {
			maxDq = maxDq[1:]
		}
		for minDq[0] < out-window {
			minDq = minDq[1:]
		}
		upper[out] = y[maxDq[0]]
		lower[out] = y[minDq[0]]
	}
	return upper, lower
}

// LBKeogh computes the LB_Keogh lower bound on cDTW(x, y) with the given
// Sakoe-Chiba half-width, given y's precomputed envelopes. The bound is the
// Euclidean distance from x to the envelope tube:
//
//	LB_Keogh(x, y) <= cDTW(x, y)
//
// which lets 1-NN search skip the full O(m·w) DP when the bound already
// exceeds the best distance found so far (the paper's "_LB" rows in Table 2).
func LBKeogh(x, upper, lower []float64) float64 {
	s := 0.0
	for i := range x {
		switch {
		case x[i] > upper[i]:
			d := x[i] - upper[i]
			s += d * d
		case x[i] < lower[i]:
			d := lower[i] - x[i]
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// NNIndex finds the index in refs of the nearest neighbor of query under
// measure d, returning the index and distance. It performs a plain linear
// scan; see LBNNSearcher for the LB_Keogh-pruned cDTW search.
func NNIndex(d Measure, query []float64, refs [][]float64) (int, float64) {
	best, bestIdx := math.Inf(1), -1
	for i, r := range refs {
		if dd := d.Distance(query, r); dd < best {
			best, bestIdx = dd, i
		}
	}
	return bestIdx, best
}

// LBNNSearcher performs 1-NN search under cDTW using LB_Keogh pruning with
// precomputed envelopes for the reference set. It is read-only after
// construction, so one searcher serves concurrent NN calls.
type LBNNSearcher struct {
	refs   [][]float64
	upper  [][]float64
	lower  [][]float64
	window int
}

// NewLBNNSearcher precomputes envelopes of refs for a Sakoe-Chiba band of
// half-width window (window < 0 means the unconstrained band m).
func NewLBNNSearcher(refs [][]float64, window int) *LBNNSearcher {
	s := &LBNNSearcher{refs: refs, window: window}
	s.upper = make([][]float64, len(refs))
	s.lower = make([][]float64, len(refs))
	for i, r := range refs {
		w := window
		if w < 0 {
			w = len(r)
		}
		s.upper[i], s.lower[i] = Envelope(r, w)
	}
	return s
}

// NN returns the index and cDTW distance of the nearest reference to query
// (ties to the smaller index): a Scan over the LB_Keogh bounds, seed 0.
func (s *LBNNSearcher) NN(query []float64) (int, float64) {
	lb := make([]float64, len(s.refs))
	for i := range lb {
		lb[i] = LBKeogh(query, s.upper[i], s.lower[i])
	}
	var scan Scan
	scan.Reset(lb, 0, false)
	for i, ok := scan.Next(); ok; i, ok = scan.Next() {
		scan.Offer(CDTW(query, s.refs[i], s.window), 0)
	}
	idx, d, _, _ := scan.Result()
	return idx, d
}
