package core

import (
	"context"
	"log/slog"
	"math"
	"math/rand"

	"kshape/internal/dist"
	"kshape/internal/obs"
	"kshape/internal/ts"
)

// This file holds the engines' per-iteration observation layer: the
// runObserver fuses the OnIteration callback, debug-level structured
// logging, and the flight recorder's live progress into one hook, and
// computes the quality trajectory (inertia delta, per-cluster centroid
// drift, sampled silhouette) those sinks consume. Everything here is
// observation only: the sampled distances are captured from evaluations
// the assignment step performs anyway, the drift SBDs run on the engine
// goroutine after the iteration's parallel sections, and no observed
// value feeds back into the clustering — so results are bit-identical, at
// every worker count, whether or not an observer is active.

// silhouetteSampleCap bounds the silhouette sample so the per-iteration
// capture stays O(cap·k) regardless of n.
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
	onIter   func(obs.IterationStats)
	logger   *slog.Logger
	logDebug bool
	rec      *obs.Recorder
	k        int

	prevCentroids [][]float64 // snapshot taken just before refinement
	prevInertia   float64
	seen          bool

	// sampleIdx is the fixed silhouette sample (ascending); capture has
	// one k-wide row per sampled series (nil elsewhere) that the
	// assignment step fills with that iteration's centroid distances.
	sampleIdx []int
	capture   [][]float64
}

// newRunObserver returns the iteration observer for one run, or nil when
// no sink (callback, debug logger, flight recorder) wants iteration
// statistics.
func newRunObserver(n, k int, onIter func(obs.IterationStats), logger *slog.Logger, rec *obs.Recorder) *runObserver {
	logDebug := logger != nil && logger.Enabled(context.Background(), slog.LevelDebug)
	if onIter == nil && !logDebug && rec == nil {
		return nil
	}
	o := &runObserver{
		onIter: onIter, logger: logger, logDebug: logDebug, rec: rec, k: k,
	}
	if k >= 2 {
		o.sampleIdx = silhouetteSample(n)
		rows := ts.NewMatrix(len(o.sampleIdx), k)
		o.capture = make([][]float64, n)
		for t, i := range o.sampleIdx {
			o.capture[i] = rows[t]
		}
	}
	return o
}

// silhouetteSample picks min(n, silhouetteSampleCap) distinct series
// indices from a fixed seed, in ascending order.
func silhouetteSample(n int) []int {
	if n <= silhouetteSampleCap {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	rng := rand.New(rand.NewSource(silhouetteSampleSeed))
	perm := rng.Perm(n)
	idx := append([]int(nil), perm[:silhouetteSampleCap]...)
	// Insertion sort: the sample is small and ascending order keeps the
	// capture walk cache-friendly and the reported sample stable.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// captureRows exposes the distance-capture matrix to the assignment
// step: row i is non-nil exactly for sampled series, nil otherwise (and
// the whole return is nil when observation is off or k < 2).
func (o *runObserver) captureRows() [][]float64 {
	if o == nil {
		return nil
	}
	return o.capture
}

// beforeRefine snapshots the centroids about to be refined, so observe
// can measure how far each one moved.
func (o *runObserver) beforeRefine(centroids [][]float64) {
	if o == nil {
		return
	}
	if o.prevCentroids == nil {
		o.prevCentroids = ts.NewMatrix(len(centroids), len(centroids[0]))
	}
	for j := range centroids {
		copy(o.prevCentroids[j], centroids[j])
	}
}

// observe assembles one iteration's statistics and fans them out to the
// callback, the debug logger, and the run's recorder.
func (o *runObserver) observe(iter int, labels, prev []int, assignDist []float64,
	centroids [][]float64, refineNS, assignNS int64, reseeds int) {
	if o == nil {
		return
	}
	st := iterationStats(iter, labels, prev, assignDist, o.k, refineNS, assignNS, reseeds)
	st.CentroidDrift = o.drift(centroids)
	if o.seen {
		st.InertiaDelta = st.Inertia - o.prevInertia
	}
	o.prevInertia, o.seen = st.Inertia, true
	st.SilhouetteSample = o.silhouette(labels, st.ClusterSizes)
	if o.onIter != nil {
		o.onIter(st)
	}
	if o.logDebug {
		o.logger.Debug("refinement iteration", "stats", st)
	}
	o.rec.PublishIteration(st)
}

// drift measures each centroid's movement across the refinement step as
// an SBD. Iteration 1 starts from zero centroids, which SBD's
// degenerate-input convention maps to a drift of 1 — "moved from
// nothing". The k evaluations run on the engine goroutine after the
// parallel sections, so counter totals stay worker-count independent.
func (o *runObserver) drift(centroids [][]float64) []float64 {
	d := make([]float64, len(centroids))
	for j := range centroids {
		d[j] = dist.SBDDist(o.prevCentroids[j], centroids[j])
	}
	return d
}

// silhouette computes the simplified (centroid-based) silhouette over
// the fixed sample from the captured assignment distances: a is the
// distance to the own centroid, b the minimum distance to any other, and
// each sampled series contributes (b-a)/max(a,b) — 0 when its cluster is
// a singleton, matching internal/eval's convention.
func (o *runObserver) silhouette(labels, sizes []int) float64 {
	if o.k < 2 || len(o.sampleIdx) == 0 {
		return 0
	}
	sum := 0.0
	for _, i := range o.sampleIdx {
		row := o.capture[i]
		own := labels[i]
		if sizes[own] <= 1 {
			continue
		}
		a := row[own]
		b := math.Inf(1)
		for j, d := range row {
			if j != own && d < b {
				b = d
			}
		}
		denom := a
		if b > denom {
			denom = b
		}
		if denom > 0 && !math.IsInf(b, 1) {
			sum += (b - a) / denom
		}
	}
	return sum / float64(len(o.sampleIdx))
}
