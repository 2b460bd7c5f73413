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
	"errors"
	"fmt"
	"log/slog"
	"math"
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

// Cluster partitions equal-length time series into k clusters with k-Shape
// (or the algorithm named in opts.Method).
func Cluster(data [][]float64, k int, opts Options) (*Result, error) {
	if len(data) == 0 {
		return nil, errors.New("kshape: no input series")
	}
	name := opts.Method
	if name == "" {
		name = "k-Shape"
	}
	c, ok := methods[name]
	if !ok {
		return nil, fmt.Errorf("kshape: unknown method %q (see kshape.Methods)", name)
	}
	if err := checkSeries("series", data, len(data[0])); err != nil {
		return nil, err
	}
	prepared := data
	if !opts.SkipNormalization {
		prepared = make([][]float64, len(data))
		for i, x := range data {
			prepared[i] = ts.ZNormalize(x)
		}
	}
	// Every method — k-Shape included — dispatches through the registry
	// and cluster.Run with one core.Config, so engine options and
	// instrumentation hooks apply uniformly; OnIteration and Logger are
	// inert for methods without a refinement loop.
	onIter := opts.OnIteration
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
		Logger:        opts.Logger,
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
	return []string{
		"k-Shape",
		"k-AVG+ED", "k-AVG+SBD", "k-AVG+DTW", "k-DBA", "KSC", "k-Shape+DTW",
		"PAM+ED", "PAM+cDTW5", "PAM+SBD",
		"H-S+ED", "H-A+ED", "H-C+ED",
		"H-S+cDTW5", "H-A+cDTW5", "H-C+cDTW5",
		"H-S+SBD", "H-A+SBD", "H-C+SBD",
		"S+ED", "S+cDTW5", "S+SBD",
		"Features+k-means",
	}
}

// methods maps every name of Methods to its clusterer. The clusterers are
// stateless — each call's controls arrive in its core.Config — so one
// registry serves every call, concurrent ones included.
var methods = newMethodRegistry()

func newMethodRegistry() map[string]cluster.Clusterer {
	cdtw5 := dist.NewCDTWFrac("cDTW5", 0.05)
	reg := map[string]cluster.Clusterer{
		"k-Shape":     cluster.NewKShape(),
		"k-AVG+ED":    cluster.NewKAvgED(),
		"k-AVG+SBD":   cluster.NewKAvgSBD(),
		"k-AVG+DTW":   cluster.NewKAvgDTW(),
		"k-DBA":       cluster.NewKDBA(),
		"KSC":         cluster.NewKSC(),
		"k-Shape+DTW": cluster.NewKShapeDTW(),
		"PAM+ED":      cluster.NewPAM(dist.EDMeasure{}),
		"PAM+cDTW5":   cluster.NewPAM(cdtw5),
		"PAM+SBD":     cluster.NewPAM(dist.SBDMeasure{}),
		"S+ED":        cluster.NewSpectral(dist.EDMeasure{}),
		"S+cDTW5":     cluster.NewSpectral(cdtw5),
		"S+SBD":       cluster.NewSpectral(dist.SBDMeasure{}),

		// The statistical/feature-based contrast of Section 6.
		"Features+k-means": cluster.NewFeatureBased(),
	}
	for _, link := range []cluster.Linkage{cluster.SingleLinkage, cluster.AverageLinkage, cluster.CompleteLinkage} {
		for _, m := range []dist.Measure{dist.EDMeasure{}, cdtw5, dist.SBDMeasure{}} {
			c := cluster.NewHierarchical(link, m)
			reg[c.Name()] = c
		}
	}
	return reg
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
		return 0, 0, errors.New("kshape: EstimateK needs at least 3 series")
	}
	if kMax < 2 {
		return 0, 0, errors.New("kshape: EstimateK needs kMax >= 2")
	}
	if kMax > len(data)-1 {
		kMax = len(data) - 1
	}
	if err := checkSeries("series", data, len(data[0])); err != nil {
		return 0, 0, err
	}
	prepared := make([][]float64, len(data))
	for i, x := range data {
		if opts.SkipNormalization {
			prepared[i] = x
		} else {
			prepared[i] = ts.ZNormalize(x)
		}
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
	return []string{"ED", "SBD", "DTW", "cDTW5", "cDTW10", "LCSS", "EDR", "ERP", "MSM", "TWED"}
}

func measureByName(name string) (dist.Measure, bool) {
	switch name {
	case "ED":
		return dist.EDMeasure{}, true
	case "SBD":
		return dist.SBDMeasure{}, true
	case "DTW":
		return dist.DTWMeasure{}, true
	case "cDTW5":
		return dist.NewCDTWFrac("cDTW5", 0.05), true
	case "cDTW10":
		return dist.NewCDTWFrac("cDTW10", 0.10), true
	case "LCSS":
		return dist.LCSSMeasure{}, true
	case "EDR":
		return dist.EDRMeasure{}, true
	case "ERP":
		return dist.ERPMeasure{}, true
	case "MSM":
		return dist.MSMMeasure{}, true
	case "TWED":
		return dist.TWEDMeasure{}, true
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
	if len(train) == 0 {
		return nil, errors.New("kshape: empty training set")
	}
	if len(train) != len(labels) {
		return nil, fmt.Errorf("kshape: %d training series but %d labels", len(train), len(labels))
	}
	m, ok := measureByName(measure)
	if !ok {
		return nil, fmt.Errorf("kshape: unknown measure %q (see kshape.Measures)", measure)
	}
	if err := checkSeries("training series", train, len(train[0])); err != nil {
		return nil, err
	}
	if err := checkSeries("query", queries, len(train[0])); err != nil {
		return nil, err
	}
	prep := func(rows [][]float64) [][]float64 {
		if skipNormalization {
			return rows
		}
		out := make([][]float64, len(rows))
		for i, x := range rows {
			out[i] = ts.ZNormalize(x)
		}
		return out
	}
	out := dist.NearestIndices(m, prep(train), prep(queries), workers)
	for i, idx := range out {
		if idx < 0 {
			return nil, fmt.Errorf("kshape: query %d has no finite %s distance to any training series", i, measure)
		}
		out[i] = labels[idx]
	}
	return out, nil
}

// checkSeries rejects input the engines cannot take: a row whose length
// is not m, zero-length rows, and non-finite values. what names the rows
// in the error.
func checkSeries(what string, rows [][]float64, m int) error {
	if m == 0 {
		return fmt.Errorf("kshape: %s 0 has length 0", what)
	}
	for i, x := range rows {
		if len(x) != m {
			return fmt.Errorf("kshape: %s %d has length %d, want %d (all series must be equal-length)", what, i, len(x), m)
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("kshape: %s %d has a non-finite value at position %d", what, i, j)
			}
		}
	}
	return nil
}

// Predict assigns each query series to the nearest centroid under SBD,
// enabling out-of-sample extension of a clustering. Queries are
// z-normalized first unless skipNormalization. Queries run in parallel
// across all CPUs; the assignment is deterministic regardless.
//
// Every returned label is in [0, len(centroids)). Input that cannot have
// a nearest centroid is a programming error, and Predict panics with a
// "kshape:" message that names the offending centroid or query and the
// reason: no centroids, a centroid or query whose length differs from
// centroids[0] (or is 0), a NaN or ±Inf value, or a query whose values
// are so large that its SBD to every centroid overflows.
func Predict(centroids [][]float64, queries [][]float64, skipNormalization bool) []int {
	if len(centroids) == 0 {
		panic("kshape: Predict needs at least one centroid")
	}
	m := len(centroids[0])
	if err := checkSeries("centroid", centroids, m); err != nil {
		panic(err.Error())
	}
	if err := checkSeries("query", queries, m); err != nil {
		panic(err.Error())
	}
	qs := queries
	if !skipNormalization {
		qs = make([][]float64, len(queries))
		for i, q := range queries {
			qs[i] = ts.ZNormalize(q)
		}
	}
	out := dist.NearestIndices(dist.SBDMeasure{}, centroids, qs, 0)
	for i, idx := range out {
		if idx < 0 {
			panic(fmt.Sprintf("kshape: query %d has no finite SBD to any centroid (its values overflow)", i))
		}
	}
	return out
}
