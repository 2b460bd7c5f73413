package cluster

import (
	"math"

	"kshape/internal/par"
)

// BuildSwap runs the classic deterministic PAM of Kaufman & Rousseeuw on a
// precomputed dissimilarity matrix: the BUILD phase greedily seeds k
// medoids (first the point minimizing total dissimilarity, then the point
// that most reduces the cost), and the SWAP phase repeatedly applies the
// single (medoid, non-medoid) exchange with the largest cost improvement
// until no exchange helps. It returns the medoid indices and the final
// assignment cost.
//
// Compared with the randomized alternating k-medoids used by PAM.Cluster
// (which matches the paper's averaged-over-initializations protocol),
// BUILD+SWAP is deterministic and typically finds slightly better optima at
// O(k(n−k)²) per SWAP pass.
func BuildSwap(d [][]float64, k int) (medoids []int, cost float64) {
	return BuildSwapWorkers(d, k, 1)
}

// BuildSwapWorkers is BuildSwap with its cost scans — the BUILD candidate
// gains and the SWAP exchange deltas, the O(n²) and O(k(n−k)²) parts —
// parallelized across candidates (par.Resolve semantics: <= 0 means
// runtime.NumCPU(), 1 means serial). Tie-breaking follows par.MinIndex /
// par.MaxIndex (smallest index), which matches the serial ascending scans,
// so the chosen medoids are identical for every worker count.
func BuildSwapWorkers(d [][]float64, k, workers int) (medoids []int, cost float64) {
	n := len(d)
	if k < 1 || k > n {
		panic("cluster: BuildSwap k out of range")
	}
	isMedoid := make([]bool, n)

	// BUILD: first medoid minimizes the total dissimilarity.
	bestIdx, _ := par.MinIndex(workers, n, func(i int) float64 {
		total := 0.0
		for j := 0; j < n; j++ {
			total += d[i][j]
		}
		return total
	})
	medoids = append(medoids, bestIdx)
	isMedoid[bestIdx] = true
	// nearest[i] is the distance from i to its closest chosen medoid.
	nearest := make([]float64, n)
	for i := 0; i < n; i++ {
		nearest[i] = d[i][bestIdx]
	}
	for len(medoids) < k {
		bestCand, _ := par.MaxIndex(workers, n, func(cand int) float64 {
			if isMedoid[cand] {
				return math.Inf(-1)
			}
			gain := 0.0
			for j := 0; j < n; j++ {
				if diff := nearest[j] - d[j][cand]; diff > 0 {
					gain += diff
				}
			}
			return gain
		})
		medoids = append(medoids, bestCand)
		isMedoid[bestCand] = true
		for j := 0; j < n; j++ {
			if d[j][bestCand] < nearest[j] {
				nearest[j] = d[j][bestCand]
			}
		}
	}

	totalCost := func(meds []int) float64 {
		c := 0.0
		for i := 0; i < n; i++ {
			best := math.Inf(1)
			for _, m := range meds {
				if d[i][m] < best {
					best = d[i][m]
				}
			}
			c += best
		}
		return c
	}
	// swapCost is totalCost with the medoid at position mi replaced by
	// cand, computed without mutating the shared medoid slice so that
	// exchange deltas can be evaluated concurrently.
	swapCost := func(mi, cand int) float64 {
		c := 0.0
		for i := 0; i < n; i++ {
			best := math.Inf(1)
			for pos, m := range medoids {
				if pos == mi {
					m = cand
				}
				if d[i][m] < best {
					best = d[i][m]
				}
			}
			c += best
		}
		return c
	}

	// SWAP: best-improvement exchanges until a local optimum. Only strictly
	// positive improvements are accepted — a zero-gain swap would cycle.
	// All k·(n−k) exchange deltas of a pass are evaluated in parallel over
	// the flattened (medoid, candidate) pair index; the smallest-index tie
	// break reproduces the serial medoid-major/candidate-minor scan.
	cost = totalCost(medoids)
	for {
		pair, delta := par.MaxIndex(workers, len(medoids)*n, func(p int) float64 {
			mi, cand := p/n, p%n
			if isMedoid[cand] {
				return math.Inf(-1)
			}
			return cost - swapCost(mi, cand)
		})
		if pair < 0 || delta <= 1e-12 {
			break
		}
		bestM, bestC := pair/n, pair%n
		isMedoid[medoids[bestM]] = false
		isMedoid[bestC] = true
		medoids[bestM] = bestC
		cost -= delta
	}
	return medoids, totalCost(medoids)
}
