package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"kshape/internal/avg"
	"kshape/internal/core"
	"kshape/internal/dist"
	"kshape/internal/par"
	"kshape/internal/ts"
)

// The shadow runner re-executes one public-API call through the layers'
// exported functions, in the order the program calls them, and records a
// span around every call: the program itself carries no spans. Its whole
// dependency surface on the program is
//
//	dist.NewSBDBatch, (*dist.SBDBatch).QueryInto, .AcquireScratch,
//	.ReleaseScratch, .Len, (*dist.SBDQuery).DistanceScratch, .Nearest,
//	ts.ZNormalize, ts.ShiftInto, ts.NewMatrix,
//	avg.ShapeExtractionAligned, par.For, par.ForChunksMin and
//	core.DefaultMaxIterations,
//
// plus rules copied from unexported program code: the empty-cluster reseed
// and the bitwise fixed-point refinement skip of core.KShapeRun, and the
// chunk floors below. A program change to any of these shows up as a
// label mismatch, which makes the traced run reject its numbers, or as
// bench.shadow_drift_pct.

// Chunk-size floors of the program's parallel loops: core's assignment
// scan and dist.SBDNearest. They shape the schedule, never the result.
const (
	assignMinPerChunk = 4
	nearestMinPerJob  = 4
)

// shadowResult is the shadow k-Shape run's output, comparable field by
// field with kshape.Result.
type shadowResult struct {
	labels     []int
	centroids  [][]float64
	iterations int
	converged  bool
	inertia    float64
}

// shadow runs the job's call through the shadow runner and returns its
// per-series output. tr may be nil to run without spans.
func shadow(tr *Tracer, kind jobKind, j *job, workers int) ([]int, error) {
	if kind == knnJob {
		return shadowClassify(tr, j.data, j.labels, j.queries, workers)
	}
	res, err := shadowCluster(tr, j.data, j.k, j.seed, j.maxIter, workers)
	if err != nil {
		return nil, err
	}
	return res.labels, nil
}

// shadowCluster mirrors kshape.Cluster(data, k, Options{Seed: seed,
// MaxIterations: maxIter, Workers: workers}) with the default k-Shape
// method: the facade's checks and z-normalisation, then core.KShapeRun.
func shadowCluster(tr *Tracer, data [][]float64, k int, seed int64, maxIter, workers int) (*shadowResult, error) {
	ln := tr.Lane()
	root := ln.Begin("bench.job", noParent)
	defer ln.End(root, 1)

	sp := ln.Begin("kshape.facade", root)
	err := checkInput(data)
	ln.End(sp, 1)
	if err != nil {
		return nil, err
	}
	prepared := znormAll(ln, root, data)
	return shadowKShapeRun(tr, ln, root, prepared, k, maxIter, rand.New(rand.NewSource(seed)), workers)
}

// checkInput is the facade's validation: a non-empty set of equal-length,
// finite series.
func checkInput(data [][]float64) error {
	if len(data) == 0 {
		return errors.New("no input series")
	}
	m := len(data[0])
	for i, x := range data {
		if len(x) != m {
			return fmt.Errorf("series %d has length %d, want %d", i, len(x), m)
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("series %d has a non-finite value at position %d", i, j)
			}
		}
	}
	return nil
}

func znormAll(ln *Lane, parent uint64, rows [][]float64) [][]float64 {
	sp := ln.Begin("ts.znorm", parent)
	out := make([][]float64, len(rows))
	for i, x := range rows {
		out[i] = ts.ZNormalize(x)
	}
	ln.End(sp, int64(len(rows)))
	return out
}

// shadowKShapeRun mirrors core.KShapeRun with only an iteration cap
// (0 means core.DefaultMaxIterations): random initial labels, one spectrum
// batch over the data, then refinement and assignment until no label
// changes or the cap is reached.
func shadowKShapeRun(tr *Tracer, ln *Lane, parent uint64, data [][]float64, k, maxIter int, rng *rand.Rand, workers int) (*shadowResult, error) {
	run := ln.Begin("core.run", parent)
	defer ln.End(run, 1)
	n, m := len(data), len(data[0])
	if k < 1 || k > n {
		return nil, fmt.Errorf("k must satisfy 1 <= k <= number of series: k=%d, n=%d", k, n)
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(k)
	}

	sp := ln.Begin("dist.spectra", run)
	batch := dist.NewSBDBatch(data)
	ln.End(sp, int64(n))

	centroids := make([][]float64, k)
	for j := range centroids {
		centroids[j] = make([]float64, m)
	}
	assignDist := make([]float64, n)
	prev := make([]int, n)
	queries := make([]*dist.SBDQuery, k)
	specFresh := make([]bool, k)
	settled := make([]bool, k)
	membersChanged := make([]bool, k)
	for j := range membersChanged {
		membersChanged[j] = true
	}
	order := make([]int, n)
	starts := make([]int, k+1)
	fill := make([]int, k)
	alignRows := ts.NewMatrix(n, m)
	res := &shadowResult{labels: labels, centroids: centroids}

	if maxIter <= 0 {
		maxIter = core.DefaultMaxIterations
	}
	for iter := 0; iter < maxIter; iter++ {
		copy(prev, labels)

		phase := ln.Begin("core.refine", run)
		alloc0 := tr.Allocated()
		for j := range fill {
			starts[j] = 0
			fill[j] = 0
		}
		starts[k] = 0
		for _, l := range labels {
			starts[l+1]++
		}
		for j := 0; j < k; j++ {
			starts[j+1] += starts[j]
			fill[j] = starts[j]
		}
		for i, l := range labels {
			order[fill[l]] = i
			fill[l]++
		}
		pf := ln.Begin("par.for", phase)
		par.For(workers, k, func(j int) {
			bl := tr.Lane()
			body := bl.Begin("core.cluster", pf)
			defer bl.End(body, 1)
			if settled[j] && !membersChanged[j] {
				return
			}
			idxs := order[starts[j]:starts[j+1]]
			if len(idxs) == 0 {
				centroids[j] = make([]float64, m)
				settled[j], specFresh[j] = false, false
				return
			}
			rows := alignRows[starts[j]:starts[j+1]]
			if isAllZero(centroids[j]) {
				for t, i := range idxs {
					copy(rows[t], data[i])
				}
			} else {
				if !specFresh[j] {
					q := bl.Begin("dist.query", body)
					queries[j] = batch.QueryInto(queries[j], centroids[j])
					bl.End(q, 1)
					specFresh[j] = true
				}
				sc := batch.AcquireScratch()
				for t, i := range idxs {
					a := bl.Begin("dist.align_ncc", body)
					_, shift := queries[j].DistanceScratch(i, sc)
					bl.End(a, 1)
					s := bl.Begin("ts.shift", body)
					ts.ShiftInto(rows[t], data[i], shift)
					bl.End(s, 1)
				}
				batch.ReleaseScratch(sc)
			}
			e := bl.Begin("avg.extract", body)
			newC := avg.ShapeExtractionAligned(rows)
			bl.End(e, 1)
			settled[j] = equalFloatBits(newC, centroids[j])
			centroids[j] = newC
			if !settled[j] {
				specFresh[j] = false
			}
		})
		ln.End(pf, int64(k))
		tr.AddAlloc("core.refine", tr.Allocated()-alloc0)
		ln.End(phase, 1)

		phase = ln.Begin("core.assign", run)
		alloc0 = tr.Allocated()
		pf = ln.Begin("par.for", phase)
		par.For(workers, k, func(j int) {
			bl := tr.Lane()
			body := bl.Begin("core.refresh", pf)
			if !specFresh[j] {
				q := bl.Begin("dist.query", body)
				queries[j] = batch.QueryInto(queries[j], centroids[j])
				bl.End(q, 1)
				specFresh[j] = true
			}
			bl.End(body, 1)
		})
		ln.End(pf, int64(k))
		pc := ln.Begin("par.chunks", phase)
		par.ForChunksMin(workers, n, assignMinPerChunk, func(lo, hi int) {
			bl := tr.Lane()
			body := bl.Begin("dist.assign_ncc", pc)
			sc := batch.AcquireScratch()
			for i := lo; i < hi; i++ {
				assignDist[i], labels[i] = nearestCentroid(queries, sc, i, labels[i])
			}
			batch.ReleaseScratch(sc)
			bl.End(body, int64((hi-lo)*k))
		})
		ln.End(pc, int64(n))
		tr.AddAlloc("core.assign", tr.Allocated()-alloc0)
		ln.End(phase, 1)

		reseedEmpty(labels, assignDist, k)
		for j := range membersChanged {
			membersChanged[j] = false
		}
		for i := range labels {
			if labels[i] != prev[i] {
				membersChanged[labels[i]] = true
				membersChanged[prev[i]] = true
			}
		}
		res.iterations = iter + 1
		if sameInts(labels, prev) {
			res.converged = true
			break
		}
	}
	for _, d := range assignDist {
		res.inertia += d * d
	}
	return res, nil
}

// nearestCentroid is core's assignment scan: ascending over the cached
// centroid queries, the first strict improvement wins, and the current
// label stands when nothing beats +Inf.
func nearestCentroid(queries []*dist.SBDQuery, sc *dist.SBDScratch, i, initJ int) (float64, int) {
	best, bestJ := math.Inf(1), initJ
	for j, q := range queries {
		if d, _ := q.DistanceScratch(i, sc); d < best {
			best, bestJ = d, j
		}
	}
	return best, bestJ
}

// reseedEmpty is core's empty-cluster rule: each empty cluster takes the
// series with the largest assignment distance among clusters that keep
// another member.
func reseedEmpty(labels []int, assignDist []float64, k int) {
	counts := make([]int, k)
	for _, l := range labels {
		counts[l]++
	}
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
			continue
		}
		counts[labels[worstI]]--
		labels[worstI] = j
		counts[j] = 1
		assignDist[worstI] = 0
	}
}

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

func isAllZero(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// shadowClassify mirrors kshape.Classify1NNWorkers(train, labels, queries,
// "SBD", false, workers): the facade's checks and z-normalisation, then
// dist.SBDNearest, then the class lookup.
func shadowClassify(tr *Tracer, train [][]float64, labels []int, queries [][]float64, workers int) ([]int, error) {
	ln := tr.Lane()
	root := ln.Begin("bench.job", noParent)
	defer ln.End(root, 1)

	sp := ln.Begin("kshape.facade", root)
	var err error
	switch {
	case len(train) == 0:
		err = errors.New("empty training set")
	case len(train) != len(labels):
		err = fmt.Errorf("%d training series but %d labels", len(train), len(labels))
	}
	ln.End(sp, 1)
	if err != nil {
		return nil, err
	}
	refs := znormAll(ln, root, train)
	qs := znormAll(ln, root, queries)

	sp = ln.Begin("dist.spectra", root)
	b := dist.NewSBDBatch(refs)
	ln.End(sp, int64(len(refs)))
	idx := make([]int, len(qs))
	pc := ln.Begin("par.chunks", root)
	par.ForChunksMin(workers, len(qs), nearestMinPerJob, func(lo, hi int) {
		bl := tr.Lane()
		body := bl.Begin("dist.chunk", pc)
		var q *dist.SBDQuery
		for i := lo; i < hi; i++ {
			s := bl.Begin("dist.query", body)
			q = b.QueryInto(q, qs[i])
			bl.End(s, 1)
			s = bl.Begin("dist.nearest", body)
			idx[i], _ = q.Nearest()
			bl.End(s, int64(b.Len()))
		}
		bl.End(body, int64(hi-lo))
	})
	ln.End(pc, int64(len(qs)))

	sp = ln.Begin("kshape.facade", root)
	out := make([]int, len(qs))
	for i, t := range idx {
		out[i] = labels[t]
	}
	ln.End(sp, 1)
	return out, nil
}
