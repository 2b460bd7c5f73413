package eval

import (
	"math"

	"kshape/internal/dist"
	"kshape/internal/par"
	"kshape/internal/ts"
)

// OneNNAccuracyWorkers evaluates a distance measure by 1-NN
// classification (Section 4, "Metrics"): each test series is assigned the
// label of its nearest training series under d, and the returned value is
// the fraction classified correctly. Queries run on up to workers
// goroutines (par.Resolve semantics: <= 0 means runtime.NumCPU(), 1 means
// serial); the accuracy is identical for every worker count.
func OneNNAccuracyWorkers(d dist.Measure, train, test []ts.Series, workers int) float64 {
	if len(test) == 0 || len(train) == 0 {
		return 0
	}
	nearest := dist.NearestIndices(d, ts.Rows(train), ts.Rows(test), workers)
	correct := 0
	for i, idx := range nearest {
		if train[idx].Label == test[i].Label {
			correct++
		}
	}
	return float64(correct) / float64(len(test))
}

// OneNNAccuracyLB is OneNNAccuracyWorkers for cDTW with LB_Keogh pruning
// (Table 2's "_LB" rows). window is the Sakoe-Chiba half-width.
func OneNNAccuracyLB(window int, train, test []ts.Series, workers int) float64 {
	if len(test) == 0 || len(train) == 0 {
		return 0
	}
	s := dist.NewLBNNSearcher(ts.Rows(train), window)
	hit := make([]bool, len(test))
	par.For(workers, len(test), func(i int) {
		idx, _ := s.NN(test[i].Values)
		hit[i] = train[idx].Label == test[i].Label
	})
	return float64(countTrue(hit)) / float64(len(test))
}

// countTrue counts the set entries of hit, the per-index slots a parallel
// classification loop fills.
func countTrue(hit []bool) int {
	n := 0
	for _, h := range hit {
		if h {
			n++
		}
	}
	return n
}

// TuneCDTWWindow finds the cDTWopt warping window (Section 4, "Parameter
// settings"): it scans half-widths from 0% to maxFrac of the series length
// and returns the one maximizing leave-one-out 1-NN accuracy on the
// training set, breaking ties toward the smaller (cheaper) window. The
// leave-one-out scans run on up to workers goroutines.
func TuneCDTWWindow(train []ts.Series, maxFrac float64, workers int) (window int, looAccuracy float64) {
	if len(train) < 2 {
		return 0, 0
	}
	m := train[0].Len()
	maxW := int(math.Round(maxFrac * float64(m)))
	if maxW < 0 {
		maxW = 0
	}
	bestW, bestAcc := 0, -1.0
	for w := 0; w <= maxW; w++ {
		acc := looAccuracyCDTW(train, w, workers)
		if acc > bestAcc {
			bestAcc, bestW = acc, w
		}
	}
	return bestW, bestAcc
}

// looAccuracyCDTW computes leave-one-out 1-NN accuracy on train under cDTW
// with the given window, parallelized across held-out points.
func looAccuracyCDTW(train []ts.Series, window, workers int) float64 {
	n := len(train)
	hit := make([]bool, n)
	par.For(workers, n, func(i int) {
		best, bestJ := math.Inf(1), -1
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if d := dist.CDTW(train[i].Values, train[j].Values, window); d < best {
				best, bestJ = d, j
			}
		}
		hit[i] = bestJ >= 0 && train[bestJ].Label == train[i].Label
	})
	return float64(countTrue(hit)) / float64(n)
}
