package core

import (
	"math"
	"math/rand"

	"kshape/internal/obs"
)

// This file holds the engines' per-iteration observation layer: the
// runObserver fuses the OnIteration callback and the flight recorder's
// live progress into one hook, and derives the quality trajectory
// (inertia delta, per-cluster centroid drift, sampled silhouette) those
// sinks consume from numbers the engine computes anyway: the assignment
// distances, the refinement drift that the k-Shape scan prunes with, and
// the runner-up distance of each sampled series. Finding an exact
// runner-up is the one extra cost: a sampled series prunes against its
// second-nearest distance rather than its nearest, so it evaluates more
// SBDs. No observed value feeds back into the clustering, so results are
// bit-identical, at every worker count, whether or not an observer is
// active.

// silhouetteSampleCap bounds the silhouette sample so the per-iteration
// extra work stays O(cap·k) regardless of n.
const silhouetteSampleCap = 64

// silhouetteSampleSeed fixes the sample; the sample must not draw from
// the caller's rng (consuming it would change the clustering) and must
// be identical run to run for the trajectory to be comparable.
const silhouetteSampleSeed = 0x5eed5eed

// runObserver computes and fans out per-iteration statistics. A nil
// *runObserver is the disabled state: every method is nil-safe and
// free, preserving the engines' "no bookkeeping unless observed"
// property.
type runObserver struct {
	onIter func(obs.IterationStats)
	rec    *obs.Recorder

	prevInertia float64
	seen        bool
}

// newRunObserver returns the iteration observer for one run, or nil when
// no sink (callback, flight recorder) wants iteration statistics.
func newRunObserver(onIter func(obs.IterationStats), rec *obs.Recorder) *runObserver {
	if onIter == nil && rec == nil {
		return nil
	}
	return &runObserver{onIter: onIter, rec: rec}
}

// runnerUpSlots allocates the loop's runnerUp row for n series: +Inf at
// the silhouette sample — min(n, silhouetteSampleCap) distinct series
// drawn from a fixed seed — and NaN elsewhere. It is nil when observation
// is off or k < 2, so an unobserved run allocates nothing for it.
func (o *runObserver) runnerUpSlots(n, k int) []float64 {
	if o == nil || k < 2 {
		return nil
	}
	slots := make([]float64, n)
	for i := range slots {
		slots[i] = math.NaN()
	}
	rng := rand.New(rand.NewSource(silhouetteSampleSeed))
	for _, i := range rng.Perm(n)[:min(n, silhouetteSampleCap)] {
		slots[i] = math.Inf(1)
	}
	return slots
}

// observe assembles one iteration's statistics and fans them out to the
// callback and the run's recorder.
func (o *runObserver) observe(iter int, r *loop, prev []int, refineNS, assignNS int64, reseeds int) {
	if o == nil {
		return
	}
	st := iterationStats(iter, r.labels, prev, r.assignDist, r.k, refineNS, assignNS, reseeds)
	st.CentroidDrift = centroidDrift(r.drift)
	if o.seen {
		st.InertiaDelta = st.Inertia - o.prevInertia
	}
	o.prevInertia, o.seen = st.Inertia, true
	st.SilhouetteSample = silhouette(r.labels, st.ClusterSizes, r.assignDist, r.runnerUp)
	if o.onIter != nil {
		o.onIter(st)
	}
	o.rec.PublishIteration(st)
}

// centroidDrift reports each centroid's movement across the refinement
// step from the refinement's own unit-length drift d: d²/2 = 1 − ⟨ĉ, ĉ′⟩,
// the normalized cross-correlation at lag 0, an upper bound on the SBD
// between the two centroids. A move from or to the zero series (d = +Inf)
// reads 1, SBD's degenerate-input convention, so iteration 1 — which
// starts from zero centroids — reports 1: "moved from nothing".
func centroidDrift(drift []float64) []float64 {
	out := make([]float64, len(drift))
	for j, d := range drift {
		out[j] = 1
		if !math.IsInf(d, 1) {
			out[j] = d * d / 2
		}
	}
	return out
}

// silhouette computes the simplified (centroid-based) silhouette over
// the fixed sample — the series with a runnerUp slot — in ascending
// order: a is the distance to the own centroid, b the distance to the
// nearest other one, and each sampled series contributes (b-a)/max(a,b)
// — 0 when its cluster is a singleton, matching internal/eval's
// convention. A reseeded series always lands in a singleton, so its
// stale distances are never read.
func silhouette(labels, sizes []int, assignDist, runnerUp []float64) float64 {
	sum, sampled := 0.0, 0
	for i, b := range runnerUp {
		if math.IsNaN(b) {
			continue
		}
		sampled++
		if sizes[labels[i]] <= 1 {
			continue
		}
		a := assignDist[i]
		denom := a
		if b > denom {
			denom = b
		}
		if denom > 0 && !math.IsInf(b, 1) {
			sum += (b - a) / denom
		}
	}
	if sampled == 0 {
		return 0
	}
	return sum / float64(sampled)
}
