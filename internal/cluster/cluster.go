// Package cluster implements every clustering baseline of the k-Shape
// paper's evaluation (Section 4, Table 1): the scalable k-means family
// (k-AVG+ED, k-AVG+SBD, k-AVG+DTW, k-DBA, KSC) and the non-scalable methods
// that require a full dissimilarity matrix — PAM (k-medoids), agglomerative
// hierarchical clustering with single/average/complete linkage, and
// normalized spectral clustering — each combinable with ED, cDTW, or SBD.
package cluster

import (
	"kshape/internal/avg"
	"kshape/internal/core"
	"kshape/internal/dist"
	"kshape/internal/obs"
)

// Clusterer partitions equal-length series into k clusters.
type Clusterer interface {
	// Name returns the identifier used in experiment tables
	// (e.g. "k-AVG+ED", "PAM+cDTW", "H-S+SBD").
	Name() string
	// Cluster partitions data into cfg.K clusters. cfg.Rand drives random
	// initialization (deterministic methods ignore it), cfg.Workers bounds
	// the parallelism, and cfg.MaxIterations caps any iteration loop.
	// Only the refinement-loop methods report iterations to
	// cfg.OnIteration.
	Cluster(data [][]float64, cfg core.Config) (*core.Result, error)
}

// Run clusters data with c, bracketing the run on the flight recorder
// with the method mark and the live-progress run events, so
// instrumentation fires uniformly across methods. Without an active
// recorder every hook is a no-op. An input core.CheckRun rejects is
// rejected before any distance, spectrum or matrix is computed.
func Run(c Clusterer, data [][]float64, cfg core.Config) (*core.Result, error) {
	if err := core.CheckRun(data, cfg.K); err != nil {
		return nil, err
	}
	rec := obs.ActiveRecorder()
	// The method mark maps a run report's chunk/phase spans back to the
	// algorithm that produced them; the engines publish the per-iteration
	// progress snapshots between BeginRun and EndRun.
	rec.RecordMark("method:" + c.Name())
	rec.BeginRun(c.Name(), len(data), cfg.K, cfg.IterationCap())
	res, err := c.Cluster(data, cfg)
	if err == nil {
		rec.EndRun(res.Converged)
	}
	return res, err
}

// NewLloyd returns the clusterer named name that runs core.Lloyd with the
// given assignment distance and centroid method — the template every
// scalable baseline shares, and the one the ablations vary.
func NewLloyd(name string, distance core.DistanceFunc, centroid core.CentroidFunc) Clusterer {
	return kmeansVariant{label: name, distance: distance, centroid: centroid}
}

// kmeansVariant is the Lloyd-style clusterer of NewLloyd.
type kmeansVariant struct {
	label    string
	distance core.DistanceFunc
	centroid core.CentroidFunc
}

// Name implements Clusterer.
func (v kmeansVariant) Name() string { return v.label }

// Cluster implements Clusterer.
func (v kmeansVariant) Cluster(data [][]float64, cfg core.Config) (*core.Result, error) {
	return core.Lloyd(data, cfg, v.distance, v.centroid)
}

// NewKAvgED returns k-means with Euclidean distance and arithmetic-mean
// centroids — the paper's robust scalable baseline, k-AVG+ED.
func NewKAvgED() Clusterer {
	return NewLloyd("k-AVG+ED", func(c, x []float64) float64 { return dist.ED(c, x) }, avg.Mean)
}

// NewKAvgSBD returns k-means with SBD assignment but arithmetic-mean
// centroids (k-AVG+SBD in Table 3): a deliberately inadequate pairing that
// shows replacing only the distance measure does not beat k-AVG+ED.
func NewKAvgSBD() Clusterer {
	return NewLloyd("k-AVG+SBD", func(c, x []float64) float64 { return dist.SBDDist(c, x) }, avg.Mean)
}

// NewKAvgDTW returns k-means with DTW assignment and arithmetic-mean
// centroids (k-AVG+DTW in Table 3).
func NewKAvgDTW() Clusterer {
	return NewLloyd("k-AVG+DTW", func(c, x []float64) float64 { return dist.DTW(c, x) }, avg.Mean)
}

// NewKDBA returns the k-DBA baseline: DTW assignment with DBA centroid
// refinement (Petitjean et al.), the most robust prior k-means adaptation
// for DTW per Section 2.5.
func NewKDBA() Clusterer {
	return NewLloyd("k-DBA", func(c, x []float64) float64 { return dist.DTW(c, x) }, avg.DBA)
}

// NewKSC returns the K-Spectral Centroid baseline (Yang & Leskovec): the
// pairwise scale-and-shift distance with the matrix-decomposition centroid.
func NewKSC() Clusterer {
	return NewLloyd("KSC", func(c, x []float64) float64 {
		d, _ := avg.KSCDistance(x, c) // KSC distance normalizes by the data series
		return d
	}, avg.KSCCentroid)
}

// NewKShape returns the paper's k-Shape algorithm as a Clusterer, using the
// specialised batched-FFT step (core.KShapeRun), which produces results
// bit-identical to the generic Lloyd step with SBD + shape extraction (the
// core/kshape-vs-lloyd oracle pins this).
func NewKShape() Clusterer { return kshapeClusterer{} }

type kshapeClusterer struct{}

// Name implements Clusterer.
func (kshapeClusterer) Name() string { return "k-Shape" }

// Cluster implements Clusterer.
func (kshapeClusterer) Cluster(data [][]float64, cfg core.Config) (*core.Result, error) {
	return core.KShapeRun(data, cfg)
}

// NewKShapeDTW returns the k-Shape+DTW ablation of Table 3: shape
// extraction for centroids but DTW for assignment, demonstrating that
// mismatched distance/centroid pairs degrade accuracy.
func NewKShapeDTW() Clusterer {
	return NewLloyd("k-Shape+DTW", func(c, x []float64) float64 { return dist.DTW(c, x) }, avg.ShapeExtraction)
}
