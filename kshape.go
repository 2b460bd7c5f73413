// Package kshape implements the k-Shape time-series clustering algorithm of
// Paparrizos & Gravano (SIGMOD 2015), together with its shape-based distance
// (SBD) and shape-extraction centroid method, and the full set of baseline
// algorithms the paper evaluates against (k-means variants, k-DBA, KSC,
// PAM/k-medoids, hierarchical and spectral clustering with ED/cDTW/SBD).
//
// Quick start:
//
//	res, err := kshape.Cluster(data, 3, kshape.Options{Seed: 42})
//	// res.Labels[i] is the cluster of data[i]; res.Centroids are the
//	// extracted shapes.
//
// Input series must be equal-length. Unless Options.SkipNormalization is
// set, every series is z-normalized first, which provides the scaling and
// translation invariances of the method; SBD itself provides shift
// invariance.
package kshape

import (
	"context"
	"errors"
	"log/slog"
	"math/rand"

	"kshape/internal/avg"
	"kshape/internal/cluster"
	"kshape/internal/core"
	"kshape/internal/dist"
	"kshape/internal/eval"
	"kshape/internal/obs"
	"kshape/internal/ts"
)

// IterationStats describes one refinement iteration of an iterative
// clustering method: objective value, label churn, per-phase wall time, and
// cluster occupancy. See Options.OnIteration.
type IterationStats = obs.IterationStats

// RunTrace summarizes an instrumented clustering run: the per-iteration
// trajectory plus kernel counters and total wall time. See
// Options.CollectTrace and Result.Trace.
type RunTrace = obs.RunTrace

// KernelCounters is a snapshot of the low-level operation counters (FFT
// transforms, distance evaluations, eigensolver iterations, reseeds)
// reported inside RunTrace.
type KernelCounters = obs.Counters

// Result reports a clustering.
type Result struct {
	// Labels assigns each input series to a cluster in [0, K).
	Labels []int
	// Centroids holds one representative shape per cluster (z-normalized
	// for k-Shape; method-specific for baselines, and nil for spectral
	// clustering, whose embedded centroids are not time series).
	//
	// Constant series z-normalize to zero rows, which carry no shape. A
	// k-Shape cluster whose members are all such rows gets the
	// z-normalized unit spike at position 0 as its centroid: √(m−1) at
	// index 0 and −1/√(m−1) elsewhere, e.g. [1.414, −0.707, −0.707] for
	// m = 3, for every Workers value.
	Centroids [][]float64
	// Iterations is the number of refinement iterations executed.
	Iterations int
	// Converged is true when the method stopped on a fixed point rather
	// than the iteration cap.
	Converged bool
	// Inertia is the within-cluster sum of squared distances at termination
	// (Equation 1 of the paper) — comparable across runs of the same
	// method and k, used by ClusterRestarts to pick the best restart.
	Inertia float64
	// Trace holds the run's per-iteration trajectory and kernel counters.
	// Nil unless Options.CollectTrace was set.
	Trace *RunTrace
}

// Options configures Cluster and New.
type Options struct {
	// MaxIterations caps the iteration loop of every method that has one
	// (default 100, as in the paper): the refinement loop of k-Shape and
	// the k-means family (Features+k-means included), PAM's
	// assign/re-elect alternation, and spectral clustering's embedded
	// k-means. Hierarchical clustering has no loop to cap.
	MaxIterations int
	// Seed drives the random initial assignment. Runs with the same data,
	// k, and seed are reproducible.
	Seed int64
	// SkipNormalization disables the automatic z-normalization. Set it only
	// if the input is already z-normalized.
	SkipNormalization bool
	// Method selects the clustering algorithm by its paper name
	// ("k-Shape", "k-AVG+ED", "k-DBA", "KSC", "PAM+SBD", "H-C+SBD",
	// "S+SBD", ...). Empty means "k-Shape". See Methods for the full list.
	Method string
	// OnIteration, if non-nil, is invoked synchronously after every
	// refinement iteration of an iterative method (k-Shape and the
	// k-means family, Features+k-means included). Methods without a
	// refinement loop (hierarchical, PAM, spectral) never invoke it.
	OnIteration func(IterationStats)
	// CollectTrace records the per-iteration trajectory, kernel operation
	// counters, and total wall time of the run into Result.Trace. Counter
	// accumulation is process-global, so concurrent clustering runs in
	// other goroutines contribute to this run's counter deltas.
	CollectTrace bool
	// Workers bounds the clustering's parallelism: 0 (the default) means
	// runtime.NumCPU(), 1 means fully serial, and any other positive
	// value caps the number of concurrent workers. It covers every
	// method's whole run, the dissimilarity-matrix builds of the
	// hierarchical, PAM and spectral methods included. Every method
	// computes through the deterministic internal/par substrate, so labels,
	// centroids, iteration traces, and kernel counters are bit-for-bit
	// identical for every Workers value under a fixed Seed.
	Workers int
	// Logger, if non-nil, receives structured log records from the run:
	// per-iteration statistics at debug level for iterative methods.
	// Methods without a refinement loop emit nothing.
	Logger *slog.Logger
}

// Rejections of the input contract. Every error the API returns for
// input it cannot take (and every value Predict panics with) wraps
// exactly one of these, so errors.Is tells the cases apart; the message
// names the offending row, length, position, k or n.
var (
	// ErrNoData: no series to cluster, no training series, no centroid.
	ErrNoData = core.ErrNoData
	// ErrLength: a series whose length differs from the first one's, or
	// a zero-length series.
	ErrLength = core.ErrLength
	// ErrNonFinite: a NaN or ±Inf value.
	ErrNonFinite = core.ErrNonFinite
	// ErrBadK: k outside [1, n], or an EstimateK range with no k in it.
	ErrBadK = core.ErrBadK
	// ErrUnknownMethod: Options.Method names no entry of Methods.
	ErrUnknownMethod = errors.New("kshape: unknown method")
	// ErrUnknownMeasure: the measure names no entry of Measures.
	ErrUnknownMeasure = errors.New("kshape: unknown measure")
	// ErrLabelCount: training series and labels differ in number.
	ErrLabelCount = errors.New("kshape: label count differs from training series count")
	// ErrNoFiniteDistance: a query whose distance to every training
	// series or centroid overflows.
	ErrNoFiniteDistance = errors.New("kshape: query has no finite distance")
)

// Cluster partitions equal-length time series into k clusters with k-Shape
// (or the algorithm named in opts.Method).
func Cluster(data [][]float64, k int, opts Options) (*Result, error) {
	if err := core.CheckK(k, len(data)); err != nil {
		return nil, err
	}
	name := opts.Method
	if name == "" {
		name = "k-Shape"
	}
	c, ok := methods[name]
	if !ok {
		return nil, core.Reject(ErrUnknownMethod, "unknown method %q (see kshape.Methods)", name)
	}
	prepared, err := prepare("series", data, len(data[0]), opts.SkipNormalization)
	if err != nil {
		return nil, err
	}
	// Every method — k-Shape included — dispatches through the registry
	// and cluster.Run with one core.Config, so engine options and
	// instrumentation hooks apply uniformly; OnIteration and Logger are
	// inert for methods without a refinement loop.
	onIter := opts.OnIteration
	if l := opts.Logger; l != nil && l.Enabled(context.Background(), slog.LevelDebug) {
		next := onIter
		onIter = func(st IterationStats) {
			if next != nil {
				next(st)
			}
			l.Debug("refinement iteration", "stats", st)
		}
	}
	var trace *RunTrace
	var countersBefore obs.Counters
	var wasCounting bool
	var sw obs.Stopwatch
	if opts.CollectTrace {
		trace = &RunTrace{Method: name}
		userIter := onIter
		onIter = func(st IterationStats) {
			trace.Iterations = append(trace.Iterations, st)
			if userIter != nil {
				userIter(st)
			}
		}
		wasCounting = obs.SetEnabled(true)
		countersBefore = obs.ReadCounters()
		sw = obs.NewStopwatch()
	}
	res, err := cluster.Run(c, prepared, core.Config{
		K:             k,
		MaxIterations: opts.MaxIterations,
		Rand:          rand.New(rand.NewSource(opts.Seed)),
		OnIteration:   onIter,
		Workers:       opts.Workers,
	})
	if opts.CollectTrace {
		trace.TotalNS = sw.ElapsedNS()
		trace.Counters = obs.ReadCounters().Sub(countersBefore)
		obs.SetEnabled(wasCounting)
	}
	if err != nil {
		return nil, err
	}
	if trace != nil {
		trace.Converged = res.Converged
	}
	return &Result{
		Labels:     res.Labels,
		Centroids:  res.Centroids,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Inertia:    res.Inertia,
		Trace:      trace,
	}, nil
}

// ClusterRestarts runs Cluster `restarts` times with seeds derived from
// opts.Seed and returns the run minimizing the within-cluster objective
// (Result.Inertia) — the standard way to smooth over bad random
// initializations of Lloyd-type methods.
func ClusterRestarts(data [][]float64, k, restarts int, opts Options) (*Result, error) {
	if restarts < 1 {
		restarts = 1
	}
	var best *Result
	for r := 0; r < restarts; r++ {
		o := opts
		o.Seed = opts.Seed + int64(r)*1_000_003
		res, err := Cluster(data, k, o)
		if err != nil {
			return nil, err
		}
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

// Methods lists the clustering algorithms available through
// Options.Method, in the order of the paper's tables.
func Methods() []string {
	names := make([]string, len(methodList))
	for i, c := range methodList {
		names[i] = c.Name()
	}
	return names
}

// methodList holds every clustering method, in the order Methods lists
// them. The clusterers are stateless — each call's controls arrive in its
// core.Config — so one list serves every call, concurrent ones included.
var methodList = newMethodList()

// methods maps every name of Methods to its clusterer.
var methods = func() map[string]cluster.Clusterer {
	reg := make(map[string]cluster.Clusterer, len(methodList))
	for _, c := range methodList {
		reg[c.Name()] = c
	}
	return reg
}()

func newMethodList() []cluster.Clusterer {
	measures := []dist.Measure{dist.EDMeasure{}, dist.NewCDTWFrac("cDTW5", 0.05), dist.SBDMeasure{}}
	list := []cluster.Clusterer{
		cluster.NewKShape(),
		cluster.NewKAvgED(), cluster.NewKAvgSBD(), cluster.NewKAvgDTW(),
		cluster.NewKDBA(), cluster.NewKSC(), cluster.NewKShapeDTW(),
	}
	for _, m := range measures {
		list = append(list, cluster.NewPAM(m))
	}
	for _, m := range measures {
		for _, link := range []cluster.Linkage{cluster.SingleLinkage, cluster.AverageLinkage, cluster.CompleteLinkage} {
			list = append(list, cluster.NewHierarchical(link, m))
		}
	}
	for _, m := range measures {
		list = append(list, cluster.NewSpectral(m))
	}
	// The statistical/feature-based contrast of Section 6.
	return append(list, cluster.NewFeatureBased())
}

// SBD computes the shape-based distance between two equal-length series and
// returns y aligned (shifted) toward x. The distance lies in [0, 2]; 0
// means identical shape up to scale and shift (inputs should be
// z-normalized for the scale invariance to hold).
func SBD(x, y []float64) (distance float64, yAligned []float64) {
	return dist.SBD(x, y)
}

// SBDDistance is SBD without the aligned sequence.
func SBDDistance(x, y []float64) float64 { return dist.SBDDist(x, y) }

// ShapeExtract computes the shape-based centroid of a set of equal-length
// series: the dominant eigenvector of the centered Gram matrix of the
// SBD-aligned members (Algorithm 2 of the paper). ref is the alignment
// reference (pass nil to skip alignment, e.g. for pre-aligned data).
// Members of unequal length are a caller error: ShapeExtract panics with
// a message naming the first member whose length differs from the first
// member's.
func ShapeExtract(members [][]float64, ref []float64) []float64 {
	return avg.ShapeExtraction(members, ref)
}

// ZNormalize returns (x - mean) / std, the preprocessing k-Shape expects.
func ZNormalize(x []float64) []float64 { return ts.ZNormalize(x) }

// PAA reduces a series to the given number of segments by Piecewise
// Aggregate Approximation (each equal-width window replaced by its mean) —
// the dimensionality reduction Section 3.3 of the paper suggests when the
// series length dominates the clustering cost. Cluster the reduced rows
// exactly like raw ones.
func PAA(x []float64, segments int) []float64 { return ts.PAA(x, segments) }

// EstimateKRestarts is the number of random restarts EstimateK tries per
// candidate k, keeping the silhouette-best run. Restarts smooth over bad
// local optima of individual clusterings, which would otherwise make the
// criterion prefer a wrong k.
const EstimateKRestarts = 3

// EstimateK selects the number of clusters without labels, per the paper's
// footnote 2: it sweeps k in [2, kMax], runs k-Shape for each (with
// EstimateKRestarts restarts), and returns the k maximizing the mean
// silhouette coefficient under SBD (an intrinsic criterion), along with
// that silhouette value. The SBD dissimilarity matrix is computed once, so
// the sweep costs one O(n²) matrix plus the clusterings.
func EstimateK(data [][]float64, kMax int, opts Options) (k int, silhouette float64, err error) {
	if len(data) < 3 {
		return 0, 0, core.Reject(ErrBadK, "EstimateK needs at least 3 series")
	}
	if kMax < 2 {
		return 0, 0, core.Reject(ErrBadK, "EstimateK needs kMax >= 2")
	}
	kMax = min(kMax, len(data)-1)
	prepared, err := prepare("series", data, len(data[0]), opts.SkipNormalization)
	if err != nil {
		return 0, 0, err
	}
	d := dist.PairwiseMatrix(dist.SBDMeasure{}, prepared)
	inner := opts
	inner.SkipNormalization = true
	bestK, bestS := 0, -2.0
	for kk := 2; kk <= kMax; kk++ {
		for r := int64(0); r < EstimateKRestarts; r++ {
			inner.Seed = opts.Seed + r*1_000_003
			res, err := Cluster(prepared, kk, inner)
			if err != nil {
				return 0, 0, err
			}
			if s := eval.Silhouette(d, res.Labels); s > bestS {
				bestK, bestS = kk, s
			}
		}
	}
	return bestK, bestS, nil
}

// RandIndex scores a clustering against ground-truth classes as the
// fraction of series pairs on which the two partitions agree — the accuracy
// metric of the paper's evaluation. It is symmetric and invariant to label
// permutation; 1 means identical partitions.
func RandIndex(pred, truth []int) float64 { return eval.RandIndex(pred, truth) }

// Measures lists the distance measures accepted by Classify1NN, in the
// order of the paper's Table 2 plus the extended elastic family.
func Measures() []string {
	names := make([]string, len(measureList))
	for i, m := range measureList {
		names[i] = m.Name()
	}
	return names
}

// measureList holds every measure of Measures, in its order.
var measureList = append([]dist.Measure{
	dist.EDMeasure{}, dist.SBDMeasure{}, dist.DTWMeasure{},
	dist.NewCDTWFrac("cDTW5", 0.05), dist.NewCDTWFrac("cDTW10", 0.10),
}, dist.ElasticMeasures()...)

func measureByName(name string) (dist.Measure, bool) {
	for _, m := range measureList {
		if m.Name() == name {
			return m, true
		}
	}
	return nil, false
}

// Classify1NN labels each query with the class of its nearest training
// series under the named distance measure (see Measures) — the
// 1-nearest-neighbor protocol of the paper's distance evaluation (Table 2).
// Series are z-normalized first unless skipNormalization. Training rows and
// labels must align; all series must share one length.
func Classify1NN(train [][]float64, labels []int, queries [][]float64, measure string, skipNormalization bool) ([]int, error) {
	return Classify1NNWorkers(train, labels, queries, measure, skipNormalization, 0)
}

// Classify1NNWorkers is Classify1NN with an explicit degree of parallelism
// across queries: workers <= 0 means runtime.NumCPU(), 1 means fully
// serial. Predicted labels are identical for every worker count.
func Classify1NNWorkers(train [][]float64, labels []int, queries [][]float64, measure string, skipNormalization bool, workers int) ([]int, error) {
	if err := core.CheckCount("training series", len(train)); err != nil {
		return nil, err
	}
	if len(train) != len(labels) {
		return nil, core.Reject(ErrLabelCount, "%d training series but %d labels", len(train), len(labels))
	}
	m, ok := measureByName(measure)
	if !ok {
		return nil, core.Reject(ErrUnknownMeasure, "unknown measure %q (see kshape.Measures)", measure)
	}
	ptrain, err := prepare("training series", train, len(train[0]), skipNormalization)
	if err != nil {
		return nil, err
	}
	pqueries, err := prepare("query", queries, len(train[0]), skipNormalization)
	if err != nil {
		return nil, err
	}
	out := dist.NearestIndices(m, ptrain, pqueries, workers)
	for i, idx := range out {
		if idx < 0 {
			return nil, core.Reject(ErrNoFiniteDistance, "query %d has no finite %s distance to any training series", i, measure)
		}
		out[i] = labels[idx]
	}
	return out, nil
}

// prepare checks rows against the input contract — every row of length
// m (m = 0 is rejected) and every value finite, with what naming the
// rows in the error — and returns them z-normalized unless skip.
func prepare(what string, rows [][]float64, m int, skip bool) ([][]float64, error) {
	if err := core.CheckLengths(what, rows, m); err != nil {
		return nil, err
	}
	if err := core.CheckFinite(what, rows); err != nil {
		return nil, err
	}
	if skip {
		return rows, nil
	}
	out := make([][]float64, len(rows))
	for i, x := range rows {
		out[i] = ts.ZNormalize(x)
	}
	return out, nil
}

// Predict assigns each query series to the nearest centroid under SBD,
// enabling out-of-sample extension of a clustering. Queries are
// z-normalized first unless skipNormalization. Queries run in parallel
// across all CPUs; the assignment is deterministic regardless.
//
// Every returned label is in [0, len(centroids)). Input that cannot have
// a nearest centroid is a programming error, and Predict panics with an
// error whose "kshape:" message names the offending centroid or query and
// the reason: no centroids (ErrNoData), a centroid or query whose length
// differs from centroids[0] or is 0 (ErrLength), a NaN or ±Inf value
// (ErrNonFinite), or a query whose values are so large that its SBD to
// every centroid overflows (ErrNoFiniteDistance).
func Predict(centroids [][]float64, queries [][]float64, skipNormalization bool) []int {
	if err := core.CheckCount("centroid", len(centroids)); err != nil {
		panic(err)
	}
	m := len(centroids[0])
	if _, err := prepare("centroid", centroids, m, true); err != nil {
		panic(err)
	}
	qs, err := prepare("query", queries, m, skipNormalization)
	if err != nil {
		panic(err)
	}
	out := dist.NearestIndices(dist.SBDMeasure{}, centroids, qs, 0)
	for i, idx := range out {
		if idx < 0 {
			panic(core.Reject(ErrNoFiniteDistance, "query %d has no finite SBD to any centroid (its values overflow)", i))
		}
	}
	return out
}
