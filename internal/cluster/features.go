package cluster

import (
	"math"

	"kshape/internal/avg"
	"kshape/internal/core"
	"kshape/internal/dist"
	"kshape/internal/ts"
)

// FeatureBased is the statistical/feature-based clustering family the
// paper's Section 6 contrasts with shape-based approaches
// (characteristic-based clustering, Wang, Smith & Hyndman): every series is
// summarized by a fixed vector of global descriptors, the feature columns
// are z-scored across the collection, and k-means with ED runs on the
// feature vectors. It is fast and length-independent but, as the paper
// argues, the fixed features are domain-sensitive — the shape information
// SBD preserves is discarded.
type FeatureBased struct{}

// NewFeatureBased returns the feature-based baseline clusterer.
func NewFeatureBased() Clusterer { return FeatureBased{} }

// Name implements Clusterer.
func (FeatureBased) Name() string { return "Features+k-means" }

// Cluster implements Clusterer.
func (FeatureBased) Cluster(data [][]float64, cfg core.Config) (*core.Result, error) {
	res, err := core.Lloyd(FeatureMatrix(data), cfg,
		func(c, x []float64) float64 { return dist.ED(c, x) }, avg.Mean)
	if err != nil {
		return nil, err
	}
	// Feature-space centroids are not time series; drop them like the
	// spectral clusterer does.
	res.Centroids = nil
	return res, nil
}

// FeatureMatrix computes the descriptor vector of every series and z-scores
// each feature column across the collection, so no single scale dominates
// the Euclidean geometry.
func FeatureMatrix(data [][]float64) [][]float64 {
	n := len(data)
	feats := make([][]float64, n)
	for i, x := range data {
		feats[i] = Features(x)
	}
	if n == 0 {
		return feats
	}
	f := len(feats[0])
	col := make([]float64, n)
	for j := 0; j < f; j++ {
		for i := 0; i < n; i++ {
			col[i] = feats[i][j]
		}
		mu := ts.Mean(col)
		sd := ts.Std(col)
		for i := 0; i < n; i++ {
			if sd > 0 {
				feats[i][j] = (feats[i][j] - mu) / sd
			} else {
				feats[i][j] = 0
			}
		}
	}
	return feats
}

// Features computes the global descriptors of one series: mean, standard
// deviation, skewness, kurtosis, first-lag and seasonal-lag autocorrelation,
// linear-trend slope, mean absolute change, number of mean crossings, and
// spectral entropy — the classic characteristic-based set.
func Features(x []float64) []float64 {
	m := len(x)
	if m == 0 {
		return make([]float64, 10)
	}
	mu := ts.Mean(x)
	sd := ts.Std(x)
	skew, kurt := 0.0, 0.0
	if sd > 0 {
		for _, v := range x {
			z := (v - mu) / sd
			skew += z * z * z
			kurt += z * z * z * z
		}
		skew /= float64(m)
		kurt = kurt/float64(m) - 3
	}
	acf1 := autocorr(x, mu, sd, 1)
	acfSeason := autocorr(x, mu, sd, max(2, m/8))
	slope := trendSlope(x)
	mac := 0.0
	for i := 1; i < m; i++ {
		mac += math.Abs(x[i] - x[i-1])
	}
	if m > 1 {
		mac /= float64(m - 1)
	}
	crossings := 0.0
	for i := 1; i < m; i++ {
		if (x[i-1]-mu)*(x[i]-mu) < 0 {
			crossings++
		}
	}
	return []float64{
		mu, sd, skew, kurt, acf1, acfSeason, slope, mac, crossings,
		spectralEntropy(x),
	}
}

// autocorr computes the lag-l autocorrelation coefficient.
func autocorr(x []float64, mu, sd float64, lag int) float64 {
	m := len(x)
	//lint:ignore floatcmp exact zero-variance guard before dividing by sd
	if sd == 0 || lag >= m {
		return 0
	}
	s := 0.0
	for i := 0; i+lag < m; i++ {
		s += (x[i] - mu) * (x[i+lag] - mu)
	}
	return s / (float64(m) * sd * sd)
}

// trendSlope is the least-squares slope against the index.
func trendSlope(x []float64) float64 {
	m := len(x)
	if m < 2 {
		return 0
	}
	tMean := float64(m-1) / 2
	xMean := ts.Mean(x)
	num, den := 0.0, 0.0
	for i, v := range x {
		dt := float64(i) - tMean
		num += dt * (v - xMean)
		den += dt * dt
	}
	//lint:ignore floatcmp exact zero-denominator guard
	if den == 0 {
		return 0
	}
	return num / den
}

// spectralEntropy is the Shannon entropy of the normalized power spectrum,
// a complexity descriptor (low for periodic signals, high for noise).
func spectralEntropy(x []float64) float64 {
	m := len(x)
	if m < 4 {
		return 0
	}
	spec := powerSpectrum(x)
	total := 0.0
	for _, p := range spec {
		total += p
	}
	//lint:ignore floatcmp exact zero-total guard before normalizing
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, p := range spec {
		if p > 0 {
			q := p / total
			h -= q * math.Log(q)
		}
	}
	// Normalize by the maximum entropy so the feature is in [0, 1].
	return h / math.Log(float64(len(spec)))
}

// powerSpectrum returns |DFT(x)|² for the positive frequencies, computed
// naively (the feature extractor runs once per series, so O(m²) here is
// immaterial next to the clustering itself; callers needing bulk transforms
// use internal/fft).
func powerSpectrum(x []float64) []float64 {
	m := len(x)
	half := m / 2
	out := make([]float64, half)
	for k := 1; k <= half; k++ {
		re, im := 0.0, 0.0
		for t, v := range x {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(m)
			re += v * math.Cos(ang)
			im += v * math.Sin(ang)
		}
		out[k-1] = re*re + im*im
	}
	return out
}
