package main

import (
	"fmt"
	"math"
	"math/rand"

	"kshape"
	"kshape/internal/obs"
)

// Output-check thresholds.
const (
	// zTol bounds how far a centroid's mean and standard deviation may sit
	// from 0 and 1.
	zTol = 1e-6
	// clusterQualityFloor is the lowest Rand Index one k-Shape job may
	// score against the generator's classes. A job may end in a poor local
	// optimum (a CBF job has scored 0.585), so the floor only rejects
	// degenerate output: one cluster holding everything scores 1/3 on three
	// balanced classes and 1/8 on eight. The run's mean must reach
	// runQualityFloor.
	clusterQualityFloor = 0.45
	// knnQualityFloor is the lowest 1-NN accuracy a query batch may score;
	// chance is 1/8.
	knnQualityFloor = 0.6
	// knnCheckSample is how many queries of every 1-NN job are checked
	// against a brute-force scan with kshape.SBDDistance.
	knnCheckSample = 2
	// tieTol is how close to the brute-force minimum another training
	// series' distance must lie for its class to count as a tie: the batch
	// and the per-pair SBD paths may round differently in the last bits.
	tieTol = 1e-9
)

// outcome is what one call returned.
type outcome struct {
	res  *kshape.Result // clustering
	pred []int          // 1-NN predicted classes
}

// labels returns the call's per-series output: cluster labels or
// predicted classes.
func (o outcome) labels() []int {
	if o.res != nil {
		return o.res.Labels
	}
	return o.pred
}

// call makes the job's public-API call with the given worker count;
// collect sets Options.CollectTrace (clustering only).
func call(kind jobKind, j *job, workers int, collect bool) (outcome, error) {
	if kind == knnJob {
		pred, err := kshape.Classify1NNWorkers(j.data, j.labels, j.queries, "SBD", false, workers)
		return outcome{pred: pred}, err
	}
	res, err := kshape.Cluster(j.data, j.k, kshape.Options{Seed: j.seed, MaxIterations: j.maxIter, Workers: workers, CollectTrace: collect})
	return outcome{res: res}, err
}

// callCounted makes the job's call with the program's own operation
// counting on and returns the counts: Options.CollectTrace and
// Result.Trace.Counters for clustering; the 1-NN API has no trace option,
// so there the obs counters are read around the call.
func callCounted(kind jobKind, j *job, workers int) (outcome, kshape.KernelCounters, error) {
	if kind == knnJob {
		was := obs.SetEnabled(true)
		before := obs.ReadCounters()
		out, err := call(kind, j, workers, false)
		counts := obs.ReadCounters().Sub(before)
		obs.SetEnabled(was)
		return out, counts, err
	}
	out, err := call(kind, j, workers, true)
	if err != nil {
		return out, kshape.KernelCounters{}, err
	}
	return out, out.res.Trace.Counters, nil
}

// runQualityFloor is the lowest mean quality a correct run reaches: well
// under what the workloads score (see README.md).
func runQualityFloor(kind jobKind) float64 {
	if kind == knnJob {
		return 0.8
	}
	return 0.7
}

// check verifies one call's output and returns its quality: the Rand Index
// against the generator's classes for clustering, the accuracy for 1-NN.
// rng picks the 1-NN queries that are checked by brute force.
func check(kind jobKind, j *job, out outcome, rng *rand.Rand) (float64, error) {
	if kind == knnJob {
		return checkKNN(j, out.pred, rng)
	}
	return checkCluster(j, out.res)
}

// checkCluster requires labels in [0,k), finite centroids z-normalised
// within zTol (an empty cluster's may be all zero), a finite inertia, and a
// Rand Index of at least clusterQualityFloor.
func checkCluster(j *job, res *kshape.Result) (float64, error) {
	if res == nil || len(res.Labels) != len(j.data) {
		return 0, fmt.Errorf("want %d labels", len(j.data))
	}
	sizes := make([]int, j.k)
	for i, l := range res.Labels {
		if l < 0 || l >= j.k {
			return 0, fmt.Errorf("series %d has label %d outside [0,%d)", i, l, j.k)
		}
		sizes[l]++
	}
	if len(res.Centroids) != j.k {
		return 0, fmt.Errorf("%d centroids, want %d", len(res.Centroids), j.k)
	}
	for c, cen := range res.Centroids {
		if len(cen) != len(j.data[0]) {
			return 0, fmt.Errorf("centroid %d has length %d, want %d", c, len(cen), len(j.data[0]))
		}
		if err := checkZNormalized(cen, sizes[c] == 0); err != nil {
			return 0, fmt.Errorf("centroid %d: %w", c, err)
		}
	}
	if math.IsNaN(res.Inertia) || math.IsInf(res.Inertia, 0) {
		return 0, fmt.Errorf("inertia %v is not finite", res.Inertia)
	}
	ri := kshape.RandIndex(res.Labels, j.labels)
	if ri < clusterQualityFloor {
		return ri, fmt.Errorf("Rand Index %.3f below the floor %.2f", ri, clusterQualityFloor)
	}
	return ri, nil
}

// checkZNormalized accepts a finite series whose mean and standard
// deviation lie within zTol of 0 and 1, or, when its cluster is empty, an
// all-zero one.
func checkZNormalized(c []float64, empty bool) error {
	sum := 0.0
	for i, v := range c {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite value at %d", i)
		}
		sum += v
	}
	mu := sum / float64(len(c))
	ss := 0.0
	for _, v := range c {
		ss += (v - mu) * (v - mu)
	}
	sd := math.Sqrt(ss / float64(len(c)))
	if empty && mu == 0 && sd == 0 {
		return nil
	}
	if math.Abs(mu) > zTol || math.Abs(sd-1) > zTol {
		return fmt.Errorf("mean %.3g and std %.3g: not z-normalised within %g", mu, sd, zTol)
	}
	return nil
}

// checkKNN requires an accuracy of at least knnQualityFloor and checks
// knnCheckSample seeded queries against a brute-force kshape.SBDDistance
// scan over the training set, whose nearest series is the first one at the
// minimum distance (ties toward the smaller index).
func checkKNN(j *job, pred []int, rng *rand.Rand) (float64, error) {
	if len(pred) != len(j.queries) {
		return 0, fmt.Errorf("%d predictions for %d queries", len(pred), len(j.queries))
	}
	correct := 0
	for i, p := range pred {
		if p == j.qlabels[i] {
			correct++
		}
	}
	train := make([][]float64, len(j.data))
	for i, x := range j.data {
		train[i] = kshape.ZNormalize(x)
	}
	d := make([]float64, len(train))
	for s := 0; s < knnCheckSample; s++ {
		qi := rng.Intn(len(j.queries))
		q := kshape.ZNormalize(j.queries[qi])
		best, bestIdx := math.Inf(1), -1
		for t, x := range train {
			if d[t] = kshape.SBDDistance(x, q); d[t] < best {
				best, bestIdx = d[t], t
			}
		}
		ok := false
		for t := range train {
			if d[t] <= best+tieTol && j.labels[t] == pred[qi] {
				ok = true
				break
			}
		}
		if !ok {
			return 0, fmt.Errorf("query %d: predicted class %d, the brute-force SBD scan gives class %d", qi, pred[qi], j.labels[bestIdx])
		}
	}
	acc := float64(correct) / float64(len(pred))
	if acc < knnQualityFloor {
		return acc, fmt.Errorf("1-NN accuracy %.3f below the floor %.2f", acc, knnQualityFloor)
	}
	return acc, nil
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
