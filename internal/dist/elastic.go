package dist

import "math"

// This file implements the elastic distance measures that the paper's
// Section 2.3 discussion and the comparative studies it builds on (Ding et
// al., Wang et al., Giusti & Batista) evaluate alongside ED and DTW:
// LCSS, EDR, ERP, MSM, and TWED. The paper's evaluation focuses on
// ED/DTW/cDTW because those studies found them dominant; these measures are
// provided so the comparison can be extended (see kbench table2x) and
// because a time-series clustering library is expected to offer them.

// The Measure adapters run each measure at fixed, commonly used parameters
// from the literature for z-normalized series.
const (
	// lcssEpsilon is LCSS's match threshold: half a standard deviation.
	lcssEpsilon = 0.5
	// edrEpsilon is EDR's match threshold.
	edrEpsilon = 0.5
	// erpGap is ERP's gap reference: the mean of a z-normalized series.
	erpGap = 0.0
	// msmCost is MSM's split/merge cost, the midpoint of the costs Stefan
	// et al. cross-validate.
	msmCost = 0.5
	// twedLambda and twedNu are TWED's deletion penalty and stiffness,
	// mid-range values from Marteau's grid.
	twedLambda = 1.0
	twedNu     = 0.001
)

// LCSS computes the Longest Common SubSequence similarity count for real
// sequences: coordinates match when they differ by at most epsilon and
// their indices by at most delta (the matching window; delta < 0 means
// unconstrained). Vlachos et al.
func LCSS(x, y []float64, epsilon float64, delta int) int {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return 0
	}
	if delta < 0 {
		delta = n + m
	}
	prev := make([]int, m+1)
	curr := make([]int, m+1)
	for i := 1; i <= n; i++ {
		for j := range curr {
			curr[j] = 0
		}
		lo := max(1, i-delta)
		hi := min(m, i+delta)
		for j := lo; j <= hi; j++ {
			if math.Abs(x[i-1]-y[j-1]) <= epsilon {
				curr[j] = prev[j-1] + 1
			} else {
				curr[j] = max(prev[j], curr[j-1])
			}
		}
		prev, curr = curr, prev
	}
	return prev[m]
}

// LCSSDistance converts the LCSS similarity into a dissimilarity in [0, 1]:
// 1 − LCSS/min(n, m).
func LCSSDistance(x, y []float64, epsilon float64, delta int) float64 {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		if n == m {
			return 0
		}
		return 1
	}
	return 1 - float64(LCSS(x, y, epsilon, delta))/float64(min(n, m))
}

// LCSSMeasure is the Measure adapter for LCSSDistance with threshold
// lcssEpsilon and an unconstrained matching window.
type LCSSMeasure struct{}

// Name implements Measure.
func (LCSSMeasure) Name() string { return "LCSS" }

// Distance implements Measure.
func (LCSSMeasure) Distance(x, y []float64) float64 {
	return LCSSDistance(x, y, lcssEpsilon, -1)
}

// EDR computes the Edit Distance on Real sequences (Chen et al.): an edit
// distance where two coordinates match (cost 0) when they differ by at most
// epsilon, substitution otherwise costs 1, and insertions/deletions cost 1.
func EDR(x, y []float64, epsilon float64) int {
	n, m := len(x), len(y)
	prev := make([]int, m+1)
	curr := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		curr[0] = i
		for j := 1; j <= m; j++ {
			sub := 1
			if math.Abs(x[i-1]-y[j-1]) <= epsilon {
				sub = 0
			}
			curr[j] = min(prev[j-1]+sub, prev[j]+1, curr[j-1]+1)
		}
		prev, curr = curr, prev
	}
	return prev[m]
}

// EDRMeasure is the Measure adapter for EDR, normalized by max(n, m) so the
// value lies in [0, 1], with threshold edrEpsilon.
type EDRMeasure struct{}

// Name implements Measure.
func (EDRMeasure) Name() string { return "EDR" }

// Distance implements Measure.
func (EDRMeasure) Distance(x, y []float64) float64 {
	if len(x) == 0 && len(y) == 0 {
		return 0
	}
	return float64(EDR(x, y, edrEpsilon)) / float64(max(len(x), len(y)))
}

// ERP computes the Edit distance with Real Penalty (Chen & Ng): an edit
// distance whose gap operations are penalized by the distance to a constant
// reference value g (0 for z-normalized series) and substitutions by
// |x_i − y_j|. Unlike DTW, ERP is a metric (it satisfies the triangle
// inequality).
func ERP(x, y []float64, g float64) float64 {
	n, m := len(x), len(y)
	prev := make([]float64, m+1)
	curr := make([]float64, m+1)
	prev[0] = 0
	for j := 1; j <= m; j++ {
		prev[j] = prev[j-1] + math.Abs(y[j-1]-g)
	}
	for i := 1; i <= n; i++ {
		curr[0] = prev[0] + math.Abs(x[i-1]-g)
		for j := 1; j <= m; j++ {
			sub := prev[j-1] + math.Abs(x[i-1]-y[j-1])
			del := prev[j] + math.Abs(x[i-1]-g)
			ins := curr[j-1] + math.Abs(y[j-1]-g)
			curr[j] = math.Min(sub, math.Min(del, ins))
		}
		prev, curr = curr, prev
	}
	return prev[m]
}

// ERPMeasure is the Measure adapter for ERP with gap reference erpGap.
type ERPMeasure struct{}

// Name implements Measure.
func (ERPMeasure) Name() string { return "ERP" }

// Distance implements Measure.
func (ERPMeasure) Distance(x, y []float64) float64 { return ERP(x, y, erpGap) }

// MSM computes the Move-Split-Merge distance (Stefan, Athitsos & Das): an
// edit distance whose operations are value moves (cost |x−y|) and
// split/merge operations with constant cost c. MSM is a metric.
func MSM(x, y []float64, c float64) float64 {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		if n == m {
			return 0
		}
		return math.Inf(1)
	}
	msmCost := func(v, prev, other float64) float64 {
		if (prev <= v && v <= other) || (other <= v && v <= prev) {
			return c
		}
		return c + math.Min(math.Abs(v-prev), math.Abs(v-other))
	}
	prev := make([]float64, m)
	curr := make([]float64, m)
	prev[0] = math.Abs(x[0] - y[0])
	for j := 1; j < m; j++ {
		prev[j] = prev[j-1] + msmCost(y[j], y[j-1], x[0])
	}
	for i := 1; i < n; i++ {
		curr[0] = prev[0] + msmCost(x[i], x[i-1], y[0])
		for j := 1; j < m; j++ {
			move := prev[j-1] + math.Abs(x[i]-y[j])
			split := prev[j] + msmCost(x[i], x[i-1], y[j])
			merge := curr[j-1] + msmCost(y[j], x[i], y[j-1])
			curr[j] = math.Min(move, math.Min(split, merge))
		}
		prev, curr = curr, prev
	}
	return prev[m-1]
}

// MSMMeasure is the Measure adapter for MSM with split/merge cost msmCost.
type MSMMeasure struct{}

// Name implements Measure.
func (MSMMeasure) Name() string { return "MSM" }

// Distance implements Measure.
func (MSMMeasure) Distance(x, y []float64) float64 { return MSM(x, y, msmCost) }

// TWED computes the Time-Warp Edit Distance (Marteau): an elastic measure
// with a stiffness parameter nu that penalizes warping by the time-stamp
// difference and a constant deletion penalty lambda. TWED is a metric for
// nu > 0. Timestamps are taken as the sample indices.
func TWED(x, y []float64, lambda, nu float64) float64 {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		if n == m {
			return 0
		}
		return math.Inf(1)
	}
	const inf = math.MaxFloat64
	prev := make([]float64, m+1)
	curr := make([]float64, m+1)
	prev[0] = 0
	for j := 1; j <= m; j++ {
		yPrev := 0.0
		if j > 1 {
			yPrev = y[j-2]
		}
		prev[j] = prev[j-1] + math.Abs(y[j-1]-yPrev) + nu + lambda
	}
	for i := 1; i <= n; i++ {
		// The virtual 0th sample of each series is 0, consistent with the
		// deletion initialization above.
		xPrev := 0.0
		if i > 1 {
			xPrev = x[i-2]
		}
		curr[0] = prev[0] + math.Abs(x[i-1]-xPrev) + nu + lambda
		for j := 1; j <= m; j++ {
			yPrev := 0.0
			if j > 1 {
				yPrev = y[j-2]
			}
			// Match both heads (Marteau's γ_match: current and previous
			// sample differences plus twice the stiffness term).
			match := prev[j-1] + math.Abs(x[i-1]-y[j-1]) + math.Abs(xPrev-yPrev) +
				2*nu*math.Abs(float64(i-j))
			// Delete from x / delete from y.
			delX := prev[j] + math.Abs(x[i-1]-xPrev) + nu + lambda
			delY := curr[j-1] + math.Abs(y[j-1]-yPrev) + nu + lambda
			curr[j] = math.Min(match, math.Min(delX, delY))
			if curr[j] > inf {
				curr[j] = inf
			}
		}
		prev, curr = curr, prev
	}
	return prev[m]
}

// TWEDMeasure is the Measure adapter for TWED with penalty twedLambda and
// stiffness twedNu.
type TWEDMeasure struct{}

// Name implements Measure.
func (TWEDMeasure) Name() string { return "TWED" }

// Distance implements Measure.
func (TWEDMeasure) Distance(x, y []float64) float64 {
	return TWED(x, y, twedLambda, twedNu)
}

// ElasticMeasures returns the extended measure set, in the order the
// table2x experiment and kshape.Measures list it.
func ElasticMeasures() []Measure {
	return []Measure{
		LCSSMeasure{},
		EDRMeasure{},
		ERPMeasure{},
		MSMMeasure{},
		TWEDMeasure{},
	}
}
