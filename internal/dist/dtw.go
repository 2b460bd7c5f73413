package dist

import (
	"fmt"
	"math"

	"kshape/internal/obs"
)

// DTW computes the unconstrained Dynamic Time Warping distance between x
// and y (Equation 4 of the paper), with squared pointwise costs and a final
// square root, matching the classic formulation where DTW extends ED with a
// non-linear alignment.
func DTW(x, y []float64) float64 {
	return CDTW(x, y, -1)
}

// CDTW computes the constrained DTW distance with a Sakoe-Chiba band of
// half-width window cells (Figure 2b of the paper). window < 0 means
// unconstrained; window 0 degenerates to Euclidean alignment along the
// diagonal (for equal lengths). The implementation uses two rolling rows,
// so memory is O(m) while time is O(m·w) for band width w.
func CDTW(x, y []float64, window int) float64 {
	obs.Inc(obs.CounterDTW)
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		if n == m {
			return 0
		}
		return math.Inf(1)
	}
	if window >= 0 && abs(n-m) > window {
		// The band cannot connect the corners.
		return math.Inf(1)
	}
	w := window
	if w < 0 {
		w = max(n, m)
	}
	const inf = math.MaxFloat64
	prev := make([]float64, m+1)
	curr := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		for j := range curr {
			curr[j] = inf
		}
		lo := max(1, i-w)
		hi := min(m, i+w)
		for j := lo; j <= hi; j++ {
			d := x[i-1] - y[j-1]
			best := prev[j-1] // match
			if prev[j] < best {
				best = prev[j] // insertion
			}
			if curr[j-1] < best {
				best = curr[j-1] // deletion
			}
			curr[j] = d*d + best
		}
		prev, curr = curr, prev
	}
	return math.Sqrt(prev[m])
}

// WarpingPath returns the optimal cDTW alignment as (i, j) index pairs from
// (0, 0) to (n-1, m-1), along with the distance. It materializes the full
// cost matrix, so it is intended for inspection and figures (Figure 2), not
// for bulk distance computation.
func WarpingPath(x, y []float64, window int) (path [][2]int, distance float64) {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return nil, math.Inf(1)
	}
	w := window
	if w < 0 {
		w = max(n, m)
	}
	const inf = math.MaxFloat64
	cost := make([][]float64, n+1)
	for i := range cost {
		cost[i] = make([]float64, m+1)
		for j := range cost[i] {
			cost[i][j] = inf
		}
	}
	cost[0][0] = 0
	for i := 1; i <= n; i++ {
		lo := max(1, i-w)
		hi := min(m, i+w)
		for j := lo; j <= hi; j++ {
			d := x[i-1] - y[j-1]
			best := cost[i-1][j-1]
			if cost[i-1][j] < best {
				best = cost[i-1][j]
			}
			if cost[i][j-1] < best {
				best = cost[i][j-1]
			}
			cost[i][j] = d*d + best
		}
	}
	if cost[n][m] >= inf {
		return nil, math.Inf(1)
	}
	// Backtrack from the corner.
	i, j := n, m
	for i > 0 || j > 0 {
		path = append(path, [2]int{i - 1, j - 1})
		switch {
		case i == 1 && j == 1:
			i, j = 0, 0
		case i == 1:
			j--
		case j == 1:
			i--
		default:
			diag, up, left := cost[i-1][j-1], cost[i-1][j], cost[i][j-1]
			if diag <= up && diag <= left {
				i--
				j--
			} else if up <= left {
				i--
			} else {
				j--
			}
		}
	}
	reversePath(path)
	return path, math.Sqrt(cost[n][m])
}

func reversePath(p [][2]int) {
	for a, b := 0, len(p)-1; a < b; a, b = a+1, b-1 {
		p[a], p[b] = p[b], p[a]
	}
}

// DTWMeasure is the Measure for unconstrained DTW.
type DTWMeasure struct{}

// Name implements Measure.
func (DTWMeasure) Name() string { return "DTW" }

// Distance implements Measure.
func (DTWMeasure) Distance(x, y []float64) float64 { return DTW(x, y) }

// CDTWMeasure is the Measure for Sakoe-Chiba-constrained DTW. Window is the
// band half-width in cells; WindowFrac, if positive, derives the window from
// the series length instead (e.g. 0.05 for the paper's cDTW5).
type CDTWMeasure struct {
	Label      string
	Window     int
	WindowFrac float64
}

// NewCDTWFrac returns a cDTW measure whose window is frac·m, rounded to the
// nearest cell, as in the paper's cDTW5 (5%) and cDTW10 (10%).
func NewCDTWFrac(label string, frac float64) CDTWMeasure {
	return CDTWMeasure{Label: label, WindowFrac: frac}
}

// Name implements Measure.
func (c CDTWMeasure) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return fmt.Sprintf("cDTW(w=%d)", c.Window)
}

// EffectiveWindow returns the band half-width used for series of length m.
func (c CDTWMeasure) EffectiveWindow(m int) int {
	if c.WindowFrac > 0 {
		w := int(math.Round(c.WindowFrac * float64(m)))
		if w < 1 {
			w = 1
		}
		return w
	}
	return c.Window
}

// Distance implements Measure.
func (c CDTWMeasure) Distance(x, y []float64) float64 {
	return CDTW(x, y, c.EffectiveWindow(len(x)))
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
