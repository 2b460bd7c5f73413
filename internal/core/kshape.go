// Package core implements the paper's primary contribution: the k-Shape
// clustering algorithm (Section 3.3, Algorithm 3), built on the shape-based
// distance (internal/dist.SBD) and shape extraction (internal/avg).
//
// Algorithm 3 is a Lloyd loop — refine the centroids, then reassign the
// series — and every scalable baseline in the paper's evaluation (k-AVG+ED,
// k-AVG+SBD, k-AVG+DTW, k-DBA, KSC, k-Shape+DTW) is that same loop with a
// different (distance, centroid) pair. One loop therefore runs them all:
// Lloyd plugs in any pair, and KShapeRun plugs in the specialised SBD +
// shape-extraction step; internal/cluster instantiates the baselines.
package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"

	"kshape/internal/avg"
	"kshape/internal/dist"
	"kshape/internal/obs"
	"kshape/internal/par"
	"kshape/internal/ts"
)

// DefaultMaxIterations matches the paper's cap of 100 refinement iterations.
const DefaultMaxIterations = 100

// DistanceFunc measures dissimilarity between a centroid and a series.
type DistanceFunc func(centroid, x []float64) float64

// CentroidFunc computes a cluster representative given the members and the
// previous centroid (used as an alignment reference by shape extraction,
// DBA, and KSC).
type CentroidFunc func(members [][]float64, prev []float64) []float64

// Config holds the controls shared by every run of the refinement loop.
type Config struct {
	// K is the number of clusters to produce. Required, 1 <= K <= n.
	K int
	// MaxIterations caps the refinement loop; 0 means DefaultMaxIterations.
	MaxIterations int
	// Rand supplies the random initial assignment. Required.
	Rand *rand.Rand
	// OnIteration, if non-nil, is invoked synchronously after every
	// refinement iteration with that iteration's statistics (inertia,
	// label churn, per-phase wall time, cluster sizes). The callback runs
	// on the loop's goroutine; per-iteration bookkeeping is only
	// performed when it is set.
	OnIteration func(obs.IterationStats)
	// Workers bounds the loop's parallelism: the assignment step runs in
	// parallel across series and the refinement step across clusters.
	// <= 0 means runtime.NumCPU(), 1 means serial. Labels, centroids, the
	// iteration trajectory, and kernel-counter totals are bit-for-bit
	// identical for every value; Lloyd's distance and centroid functions
	// must therefore be safe for concurrent calls (every implementation
	// in this repository is).
	Workers int
}

// IterationCap is the refinement loop's iteration cap: MaxIterations, or
// DefaultMaxIterations when that is 0 (or negative).
func (c Config) IterationCap() int {
	if c.MaxIterations <= 0 {
		return DefaultMaxIterations
	}
	return c.MaxIterations
}

// Result reports a clustering.
type Result struct {
	// Labels assigns each input series to a cluster in [0, K).
	Labels []int
	// Centroids holds the K cluster representatives.
	Centroids [][]float64
	// Iterations is the number of refinement iterations executed.
	Iterations int
	// Converged is true when the loop stopped because no label changed
	// (rather than hitting MaxIterations).
	Converged bool
	// Inertia is the sum of squared assignment distances at termination —
	// the within-cluster objective of Equation 1.
	Inertia float64
}

// Lloyd runs the refinement loop with the given distance (assignment step)
// and centroid method (refinement step).
func Lloyd(data [][]float64, cfg Config, distance DistanceFunc, centroid CentroidFunc) (*Result, error) {
	if distance == nil || centroid == nil {
		return nil, errors.New("core: Lloyd needs a distance and a centroid method")
	}
	return iterate(data, cfg, func(r *loop) step {
		return &genericStep{loop: r, distance: distance, centroid: centroid, members: make([][]float64, len(data))}
	})
}

// KShapeRun clusters z-normalized, equal-length series with k-Shape: the
// refinement loop with SBD assignment and shape-extraction refinement
// (Algorithm 3). Its step precomputes the Fourier spectra of the input
// once (the data never moves between iterations, only the centroids do),
// caches each centroid's spectrum while the centroid stands still, skips
// the refinement of clusters at a bitwise fixed point, aligns members
// with the shifts the assignment scan already found, and skips every
// (series, centroid) SBD that a drift bound or a head-tail spectral bound
// proves cannot win. Its results are bit-identical to Lloyd with SBD and
// avg.ShapeExtraction, at every worker count.
func KShapeRun(data [][]float64, cfg Config) (*Result, error) {
	return iterate(data, cfg, newKShapeStep)
}

// loop is the state of one run that the loop shares with its step.
type loop struct {
	data       [][]float64
	k, m       int
	workers    int
	labels     []int
	centroids  [][]float64
	assignDist []float64
	// drift[j] is how far centroid j moved in its last refinement, both
	// scaled to unit length (+Inf when either is all zero): unitDrift.
	drift []float64
	// runnerUp[i] is the distance from series i to its second-nearest
	// centroid, kept only for the run observer's silhouette sample: it is
	// nil when the run is unobserved and NaN outside the sample.
	runnerUp []float64
	// order lists the series grouped by cluster, ascending within each
	// cluster: cluster j is order[starts[j]:starts[j+1]].
	order  []int
	starts []int
	// membersChanged[j] records that cluster j gained or lost a series
	// in the last assignment (true for every cluster before the first).
	membersChanged []bool
}

// step is the method-specific half of one iteration.
type step interface {
	// refine recomputes centroids[j] from the series order[lo:hi] and
	// sets drift[j]. It is called for every cluster in parallel.
	refine(j, lo, hi int)
	// assign moves every series to its closest centroid, setting labels
	// and assignDist, and runnerUp for the sampled series.
	assign()
}

// iterate is the refinement loop of Algorithm 3: refinement (recompute
// centroids) then assignment (reassign to nearest centroid), until labels
// stabilize or the iteration cap is hit.
//
// Centroids start as zero vectors and labels start random, matching the
// paper's pseudocode. An emptied cluster is re-seeded with the series
// currently farthest from its own centroid, which keeps K clusters alive
// without biasing toward any particular member.
func iterate(data [][]float64, cfg Config, newStep func(*loop) step) (*Result, error) {
	if err := CheckRun(data, cfg.K); err != nil {
		return nil, err
	}
	if err := CheckRand(cfg.Rand); err != nil {
		return nil, err
	}
	n, k, m := len(data), cfg.K, len(data[0])
	labels := make([]int, n)
	for i := range labels {
		labels[i] = cfg.Rand.Intn(k)
	}

	// One recorder load per run: every span, iteration mark and progress
	// snapshot of this run lands on the recorder armed when it started.
	rec := obs.ActiveRecorder()
	ob := newRunObserver(cfg.OnIteration, rec)
	r := &loop{
		data: data, k: k, m: m, workers: cfg.Workers,
		labels:         labels,
		centroids:      ts.NewMatrix(k, m), // zero vectors, per Algorithm 3
		assignDist:     make([]float64, n),
		drift:          make([]float64, k),
		runnerUp:       ob.runnerUpSlots(n, k),
		order:          make([]int, n),
		starts:         make([]int, k+1),
		membersChanged: make([]bool, k),
	}
	for j := range r.membersChanged {
		r.membersChanged[j] = true
	}
	s := newStep(r)
	res := &Result{Labels: labels, Centroids: r.centroids}
	prev := make([]int, n)
	fill := make([]int, k)
	for iter, maxIter := 0, cfg.IterationCap(); iter < maxIter; iter++ {
		copy(prev, labels)
		r.group(fill)

		// Refinement: clusters are independent, so they refine in parallel.
		refineSW := obs.NewStopwatch()
		par.For(cfg.Workers, k, func(j int) {
			s.refine(j, r.starts[j], r.starts[j+1])
		})
		refineNS := refineSW.ElapsedNS()
		rec.RecordPhaseSpan(obs.PhaseRefine, refineNS)

		assignSW := obs.NewStopwatch()
		s.assign()
		assignNS := assignSW.ElapsedNS()
		rec.RecordPhaseSpan(obs.PhaseAssign, assignNS)

		reseeds := reseedEmptyClusters(data, labels, r.assignDist, k)
		// Membership deltas (including reseeds) tell the next refinement
		// which clusters gained or lost a member.
		for j := range r.membersChanged {
			r.membersChanged[j] = false
		}
		for i := range labels {
			if labels[i] != prev[i] {
				r.membersChanged[labels[i]] = true
				r.membersChanged[prev[i]] = true
			}
		}
		if rec != nil {
			rec.RecordPhaseSpan(obs.PhaseIteration, refineSW.ElapsedNS())
			rec.RecordIteration(iter + 1)
		}
		res.Iterations = iter + 1
		converged := slices.Equal(labels, prev)
		ob.observe(iter, r, prev, refineNS, assignNS, reseeds)
		if converged {
			res.Converged = true
			break
		}
	}
	for _, d := range r.assignDist {
		res.Inertia += d * d
	}
	return res, nil
}

// group sorts the series into order by cluster (counting sort, ascending
// within each cluster), using fill as the k-wide cursor scratch.
func (r *loop) group(fill []int) {
	for j := range r.starts {
		r.starts[j] = 0
	}
	for _, l := range r.labels {
		r.starts[l+1]++
	}
	for j := 0; j < r.k; j++ {
		r.starts[j+1] += r.starts[j]
		fill[j] = r.starts[j]
	}
	for i, l := range r.labels {
		r.order[fill[l]] = i
		fill[l]++
	}
}

// sampled reports whether series i is in the observer's silhouette
// sample, whose assignment must find its exact runner-up distance.
func (r *loop) sampled(i int) bool {
	return r.runnerUp != nil && !math.IsNaN(r.runnerUp[i])
}

// genericStep refines with any CentroidFunc and assigns with any
// DistanceFunc.
type genericStep struct {
	*loop
	distance DistanceFunc
	centroid CentroidFunc
	// members is the n-row view of data in order; cluster j refines from
	// members[lo:hi].
	members [][]float64
}

func (s *genericStep) refine(j, lo, hi int) {
	for t, i := range s.order[lo:hi] {
		s.members[lo+t] = s.data[i]
	}
	old := s.centroids[j]
	s.centroids[j] = s.centroid(s.members[lo:hi:hi], old)
	s.drift[j] = unitDrift(old, s.centroids[j])
}

// assign scans the centroids of every series in parallel. Each index
// writes only its own labels/assignDist/runnerUp slots, and the centroid
// scan is ascending with a strict comparison, so the outcome is
// worker-count independent.
func (s *genericStep) assign() {
	par.For(s.workers, len(s.data), func(i int) {
		x := s.data[i]
		best, second, bestJ := math.Inf(1), math.Inf(1), s.labels[i]
		for j, c := range s.centroids {
			d := s.distance(c, x)
			if d < best {
				best, second, bestJ = d, best, j
			} else if d < second {
				second = d
			}
		}
		s.labels[i] = bestJ
		s.assignDist[i] = best
		if s.sampled(i) {
			s.runnerUp[i] = second
		}
	})
}

// kshapeStep is the k-Shape step: SBD assignment on cached spectra and
// shape-extraction refinement, arranged so that every SBD it evaluates is
// one the result needs. All its state is allocated once, and shape
// extraction works in a pooled workspace, so a steady-state refinement
// allocates only its new centroid:
//   - queries caches one prepared spectrum per centroid, and heads its
//     side of the head-tail spectral bound; specFresh[j] records that
//     both still match centroids[j], so a centroid that did not move
//     between iterations is never re-transformed.
//   - settled[j] records that the last refinement reproduced
//     centroids[j] bit for bit; combined with an unchanged member set
//     the whole refinement of cluster j is a no-op and is skipped.
//   - shift[i] is the shift that aligns series i toward centroid won[i],
//     kept from the assignment scan that chose it. Refinement reuses it
//     for every member whose label is still won[i], which is every
//     member except those reseedEmptyClusters moved (won[i] is -1 when
//     the scan found no finite distance), so alignment costs no SBD.
//   - lb[i*k+j] is a lower bound on SBD(x_i, centroids[j]): the exact
//     SBD, or the head-tail spectral bound that pruned the pair, decayed
//     by every drift since. Shifting with zero fill never increases a
//     norm, so by Cauchy–Schwarz SBD(x, c′) ≥ SBD(x, c) − drift[j] (the
//     loop's drift), which assign's dist.Scan prunes with.
//   - tail[i] is series i's tail norm for dist.HeadTailBound, computed
//     once per run.
//   - members and memberShift are the n-row view of data in order and
//     the matching shifts, cluster j owning positions [starts[j],
//     starts[j+1]); extraction shifts each member straight into its
//     workspace row.
type kshapeStep struct {
	*loop
	batch       *dist.SBDBatch
	queries     []*dist.SBDQuery
	heads       []dist.QueryHead
	specFresh   []bool
	settled     []bool
	shift, won  []int
	lb, tail    []float64
	members     [][]float64
	memberShift []int
}

func newKShapeStep(r *loop) step {
	n := len(r.data)
	batch := dist.NewSBDBatch(r.data)
	s := &kshapeStep{
		loop:        r,
		batch:       batch,
		queries:     make([]*dist.SBDQuery, r.k),
		heads:       make([]dist.QueryHead, r.k),
		specFresh:   make([]bool, r.k),
		settled:     make([]bool, r.k),
		shift:       make([]int, n),
		won:         make([]int, n),
		lb:          make([]float64, n*r.k),
		tail:        batch.TailNorms(),
		members:     make([][]float64, n),
		memberShift: make([]int, n),
	}
	for i := range s.won {
		s.won[i] = -1
	}
	return s
}

// refine extracts cluster j's new shape from its members, each shifted
// toward the previous centroid by the shift the last scan found (a member
// the scan did not assign to j gets a fresh shift from centroid j's
// cached query), and records how far the centroid moved. A cluster whose
// membership did not change and whose last refinement was a bitwise
// fixed point is skipped outright — recomputing it would reproduce the
// same centroid from the same inputs.
func (s *kshapeStep) refine(j, lo, hi int) {
	if s.settled[j] && !s.membersChanged[j] {
		s.drift[j] = 0
		return
	}
	idxs := s.order[lo:hi]
	if len(idxs) == 0 {
		s.centroids[j] = make([]float64, s.m)
		s.settled[j], s.specFresh[j] = false, false
		s.drift[j] = math.Inf(1)
		return
	}
	rows, shifts := s.members[lo:hi:hi], s.memberShift[lo:hi:hi]
	zero := isAllZero(s.centroids[j])
	var sc *dist.SBDScratch
	for t, i := range idxs {
		rows[t] = s.data[i]
		switch {
		case zero:
			shifts[t] = 0 // the first iteration: every series is its own alignment
		case s.won[i] == j:
			shifts[t] = s.shift[i]
		default:
			if sc == nil {
				s.refreshQuery(j)
				sc = s.batch.AcquireScratch()
			}
			_, shifts[t] = s.queries[j].DistanceScratch(i, sc)
		}
	}
	if sc != nil {
		s.batch.ReleaseScratch(sc)
	}
	newC := avg.ShapeExtractionShifted(rows, shifts)
	s.drift[j] = unitDrift(s.centroids[j], newC)
	s.settled[j] = equalFloatBits(newC, s.centroids[j])
	s.centroids[j] = newC
	if !s.settled[j] {
		s.specFresh[j] = false
	}
}

// refreshQuery re-transforms centroid j, and reloads its head, unless its
// cached spectrum is still current.
func (s *kshapeStep) refreshQuery(j int) {
	if !s.specFresh[j] {
		s.queries[j] = s.batch.QueryInto(s.queries[j], s.centroids[j])
		s.queries[j].LoadHead(&s.heads[j])
		s.specFresh[j] = true
	}
}

// assign refreshes the cached query of every centroid that moved (at most
// k forward FFTs, fewer on later iterations as centroids settle), then
// scans the series in parallel (assignSeries); each worker chunk brings
// its own pooled inverse-FFT scratch so the queries are shared read-only,
// and publishes its pruned-pair count once.
func (s *kshapeStep) assign() {
	par.For(s.workers, s.k, s.refreshQuery)
	par.ForChunksMin(s.workers, len(s.data), assignMinPerChunk, func(lo, hi int) {
		scratch := s.batch.AcquireScratch()
		var scan dist.Scan
		var head dist.SeriesHead
		for i := lo; i < hi; i++ {
			s.assignSeries(i, &scan, &head, scratch)
		}
		s.batch.ReleaseScratch(scratch)
		obs.Add(obs.CounterSBDPruned, int64(scan.Pruned))
	})
}

// assignSeries moves series i to its nearest centroid. It decays i's lb
// row by the drifts and runs a dist.Scan seeded with its label (top-2 in
// the silhouette sample). Each other centroid that survives the row's
// bound meets the head-tail spectral bound (dist.HeadTailBound, through
// Scan.Skip) before an exact SBD; i's side of that bound is loaded into
// head once, at the first such centroid. It touches only i's lb row,
// shift, won and runnerUp slots, so labels are worker-count independent.
//
//kshape:hotpath
func (s *kshapeStep) assignSeries(i int, scan *dist.Scan, head *dist.SeriesHead, sc *dist.SBDScratch) {
	lb := s.lb[i*s.k : (i+1)*s.k]
	for j, d := range s.drift {
		lb[j] -= d
	}
	top2, own := s.sampled(i), s.labels[i]
	scan.Reset(lb, own, top2)
	loaded := false
	for j, ok := scan.Next(); ok; j, ok = scan.Next() {
		if j != own {
			if !loaded {
				s.batch.LoadHead(i, s.tail[i], head)
				loaded = true
			}
			if scan.Skip(dist.HeadTailBound(&s.heads[j], head)) {
				continue
			}
		}
		scan.Offer(s.queries[j].DistanceScratch(i, sc))
	}
	bestJ, best, second, shift := scan.Result()
	s.assignDist[i], s.shift[i], s.won[i] = best, shift, bestJ
	if top2 {
		s.runnerUp[i] = second
	}
	if bestJ >= 0 {
		s.labels[i] = bestJ
	}
}

// reseedEmptyClusters moves, for every empty cluster, the series with the
// largest assignment distance (among clusters with >1 member) into it, and
// returns the number of clusters re-seeded.
func reseedEmptyClusters(data [][]float64, labels []int, assignDist []float64, k int) int {
	counts := make([]int, k)
	for _, l := range labels {
		counts[l]++
	}
	reseeds := 0
	for j := 0; j < k; j++ {
		if counts[j] > 0 {
			continue
		}
		worst, worstI := -1.0, -1
		for i, d := range assignDist {
			if counts[labels[i]] > 1 && d > worst {
				worst, worstI = d, i
			}
		}
		if worstI < 0 {
			continue // cannot reseed without emptying another cluster
		}
		counts[labels[worstI]]--
		labels[worstI] = j
		counts[j] = 1
		assignDist[worstI] = 0
		reseeds++
	}
	obs.Add(obs.CounterReseeds, int64(reseeds))
	return reseeds
}

// iterationStats assembles the per-iteration record handed to OnIteration.
func iterationStats(iter int, labels, prev []int, assignDist []float64, k int,
	refineNS, assignNS int64, reseeds int) obs.IterationStats {
	churn := 0
	for i := range labels {
		if labels[i] != prev[i] {
			churn++
		}
	}
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	inertia := 0.0
	for _, d := range assignDist {
		inertia += d * d
	}
	return obs.IterationStats{
		Iteration:    iter + 1,
		Inertia:      inertia,
		LabelChurn:   churn,
		ClusterSizes: sizes,
		RefineNS:     refineNS,
		AssignNS:     assignNS,
		Reseeds:      reseeds,
	}
}

// assignMinPerChunk floors the per-chunk series count of the assignment
// scan so par's chunk handoff is amortized over several inverse transforms.
const assignMinPerChunk = 4

// unitDrift returns ‖b/‖b‖ − a/‖a‖‖, how far a centroid moved from a to
// b once each is scaled to unit length, or +Inf when either is all zero
// (or NaN), so no bound survives such a move.
//
//kshape:hotpath
func unitDrift(a, b []float64) float64 {
	na, nb := ts.Norm(a), ts.Norm(b)
	if !(na > 0 && nb > 0) {
		return math.Inf(1)
	}
	ia, ib := 1/na, 1/nb
	ss := 0.0
	for t := range a {
		d := b[t]*ib - a[t]*ia
		ss += d * d
	}
	return math.Sqrt(ss)
}

// equalFloatBits reports whether a and b are elementwise bit-identical —
// the fixed-point test of the refinement skip (NaN-safe and distinguishing
// ±0, unlike ==).
//
//kshape:hotpath
func equalFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

//kshape:hotpath
func isAllZero(x []float64) bool {
	for _, v := range x {
		//lint:ignore floatcmp exact all-zero test of a degenerate series
		if v != 0 {
			return false
		}
	}
	return true
}
