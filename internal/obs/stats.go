package obs

// IterationStats describes one refinement iteration of the Lloyd-style
// engine: the objective value, how many series changed cluster, where the
// wall time went, and the resulting cluster occupancy. The engine invokes
// the OnIteration callback with one of these per iteration, and RunTrace
// accumulates the full trajectory.
type IterationStats struct {
	// Iteration is 1-based, matching Result.Iterations at termination.
	Iteration int `json:"iteration"`
	// Inertia is the within-cluster sum of squared assignment distances
	// after this iteration's assignment step (Equation 1).
	Inertia float64 `json:"inertia"`
	// LabelChurn is the number of series whose cluster changed relative to
	// the previous iteration; 0 means the fixed point was reached.
	LabelChurn int `json:"label_churn"`
	// ClusterSizes is the occupancy of each cluster after assignment and
	// re-seeding.
	ClusterSizes []int `json:"cluster_sizes"`
	// RefineNS and AssignNS split the iteration's wall time between the
	// centroid-refinement and assignment phases (monotonic clock).
	RefineNS int64 `json:"refine_ns"`
	AssignNS int64 `json:"assign_ns"`
	// Reseeds is the number of empty clusters re-seeded this iteration.
	Reseeds int `json:"reseeds"`
	// CentroidDrift is how far each cluster's centroid moved in this
	// iteration's refinement step: 1 − ⟨ĉ, ĉ′⟩ for the centroid before
	// and after, each scaled to unit length — the normalized
	// cross-correlation at lag 0, so an upper bound on the SBD between
	// them. A move from or to the zero series (every first-iteration
	// centroid, or an emptied cluster) reads 1, SBD's degenerate
	// convention. Empty when the engine ran without an observer that
	// requested it.
	CentroidDrift []float64 `json:"centroid_drift,omitempty"`
	// InertiaDelta is this iteration's inertia minus the previous
	// iteration's (0 on the first iteration): negative while the objective
	// improves, 0 at the fixed point.
	InertiaDelta float64 `json:"inertia_delta"`
	// SilhouetteSample is a simplified (centroid-based) silhouette score
	// over a fixed, seeded sample of series: a is the distance to the own
	// centroid, b the minimum distance to any other centroid, and the score
	// averages (b-a)/max(a,b). The assignment step supplies both: a is the
	// series' assignment distance, and for a sampled series the k-Shape
	// scan prunes against the second-nearest distance instead of the
	// nearest so that b comes back exact, which costs some extra SBD
	// evaluations on the sample. Deterministic; 0 when k < 2 or no
	// observer requested it.
	SilhouetteSample float64 `json:"silhouette_sample"`
}

// DriftMax returns the largest per-cluster centroid drift of the
// iteration, or 0 when drift was not observed.
func (s IterationStats) DriftMax() float64 {
	max := 0.0
	for _, d := range s.CentroidDrift {
		if d > max {
			max = d
		}
	}
	return max
}

// RunTrace summarizes one clustering run: the per-iteration trajectory plus
// the kernel counters and wall time accrued over the run.
type RunTrace struct {
	// Method is the algorithm name ("k-Shape", "k-AVG+ED", ...).
	Method string `json:"method"`
	// Iterations is the per-iteration trajectory, empty for methods
	// without a refinement loop (hierarchical, PAM, spectral).
	Iterations []IterationStats `json:"iterations,omitempty"`
	// Counters is the delta of the global kernel counters over the run;
	// all-zero unless counting was enabled (see SetEnabled).
	Counters Counters `json:"counters"`
	// TotalNS is the run's wall time on the monotonic clock.
	TotalNS int64 `json:"total_ns"`
	// Converged mirrors Result.Converged.
	Converged bool `json:"converged"`
}
