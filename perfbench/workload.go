package main

import (
	"fmt"
	"math/rand"
	"strings"

	"kshape/internal/dataset"
	"kshape/internal/ts"
)

// jobKind selects the public-API call a workload's jobs make.
type jobKind int

const (
	clusterJob jobKind = iota // kshape.Cluster with k-Shape
	knnJob                    // kshape.Classify1NNWorkers with SBD
)

// job is the input of one public-API call.
type job struct {
	data    [][]float64 // series to cluster, or the 1-NN training set
	labels  []int       // generator classes of data
	k       int         // clusters to find (clustering)
	seed    int64       // Options.Seed (clustering)
	maxIter int         // Options.MaxIterations (clustering)
	queries [][]float64 // 1-NN queries
	qlabels []int       // generator classes of queries
}

// workload is one named input family. Every run generates a pool of
// distinct jobs from its seed and cycles through the pool.
type workload struct {
	name   string
	kind   jobKind
	params string // generator parameters, printed with every run
	gen    func(seed int64) []job
	ref    string // the reference kernel its calls are timed against (see reference)
}

// Sizes. A job takes roughly 0.1-0.15 s on one worker, so a 30 s run
// passes over the pool about seven times.
const (
	// poolSize is the number of distinct jobs per run. The timed run takes
	// each job's median over its calls, so it needs several passes over
	// the pool in a run; the per-job iteration caps keep the jobs alike
	// enough that this many of them give steady quantiles from seed to
	// seed.
	poolSize = 32

	// Iteration caps (Options.MaxIterations). Left to converge, a job's
	// iteration count follows its input and initial labels (3-14 on CBF,
	// 11-46 on the shapes generator), and job time follows it, so run
	// figures followed the seed rather than the code. Each cap lies at or
	// below the fewest iterations almost any input converges in, so
	// nearly every job runs exactly that many.
	cbfN, cbfM, cbfK, cbfMaxIter = 90, 512, 3, 4

	shapesPerClass, shapesM, shapesK, shapesMaxIter = 100, 64, 8, 10 // n = 800

	knnTrainPerClass, knnQueriesPerClass, knnM = 40, 8, 256 // 320 training series, 64 queries per call
)

var workloads = []workload{
	{
		name: "kshape-cbf-long",
		kind: clusterJob,
		params: fmt.Sprintf("kshape.Cluster (k-Shape) on CBF (App. B generator), n=%d m=%d k=%d, MaxIterations=%d, %d inputs",
			cbfN, cbfM, cbfK, cbfMaxIter, poolSize),
		gen: func(seed int64) []job {
			return clusterPool(seed, cbfK, cbfMaxIter, func(s int64) []ts.Series { return dataset.CBF(cbfN, cbfM, s) })
		},
		ref: "gram",
	},
	{
		name: "kshape-shapes-many",
		kind: clusterJob,
		params: fmt.Sprintf("kshape.Cluster (k-Shape) on the 8-class shapes generator, n=%d m=%d k=%d, shift ±m/8, warp 0.05, noise 0.3, MaxIterations=%d, %d inputs",
			shapesK*shapesPerClass, shapesM, shapesK, shapesMaxIter, poolSize),
		gen: func(seed int64) []job {
			return clusterPool(seed, shapesK, shapesMaxIter, func(s int64) []ts.Series {
				return dataset.Generate(shapesSpec(shapesM, shapesPerClass, s)).Train
			})
		},
		ref: "fft",
	},
	{
		name: "knn-sbd",
		kind: knnJob,
		params: fmt.Sprintf("kshape.Classify1NN (SBD) on the 8-class shapes generator, %d training series, %d queries per call, m=%d, %d query batches",
			shapesK*knnTrainPerClass, shapesK*knnQueriesPerClass, knnM, poolSize),
		gen: knnPool,
		ref: "fft",
	},
}

// lookup returns the workload called name, or nil.
func lookup(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// seriesPerJob is the work one job does in the unit of series_per_s:
// series clustered, or queries classified.
func (w *workload) seriesPerJob(j *job) int {
	if w.kind == knnJob {
		return len(j.queries)
	}
	return len(j.data)
}

// shapesSpec is the 8-class generator of kshape-shapes-many and knn-sbd:
// eight waveform classes under shift ±m/8, warp 0.05 and noise 0.3.
func shapesSpec(m, perClass int, seed int64) dataset.Spec {
	return dataset.Spec{
		Name:          "shapes8",
		M:             m,
		TrainPerClass: perClass,
		Noise:         0.3,
		MaxShift:      m / 8,
		WarpFrac:      0.05,
		Seed:          seed,
		Classes: []dataset.ClassProto{
			dataset.SineProto(2, 0),
			dataset.SquareProto(2),
			dataset.TriangleProto(3),
			dataset.SawtoothProto(2),
			dataset.ChirpProto(1, 6),
			dataset.GaussProto(0.5, 0.08),
			dataset.DoubleGaussProto(0.3, 0.7, 0.06, 0.7),
			dataset.StepProto(0.5),
		},
	}
}

// clusterPool draws poolSize clustering jobs, each with its own generated
// input and its own Options.Seed, all derived from seed.
func clusterPool(seed int64, k, maxIter int, gen func(seed int64) []ts.Series) []job {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]job, poolSize)
	for i := range pool {
		s := gen(rng.Int63())
		pool[i] = job{data: ts.Rows(s), labels: ts.Labels(s), k: k, seed: rng.Int63(), maxIter: maxIter}
	}
	return pool
}

// knnPool draws one training set and poolSize query batches from the
// 8-class generator. Every job classifies one batch against the same
// training set, whose spectra Classify1NN rebuilds on every call.
func knnPool(seed int64) []job {
	rng := rand.New(rand.NewSource(seed))
	train := dataset.Generate(shapesSpec(knnM, knnTrainPerClass, rng.Int63())).Train
	data, labels := ts.Rows(train), ts.Labels(train)
	pool := make([]job, poolSize)
	for i := range pool {
		q := dataset.Generate(shapesSpec(knnM, knnQueriesPerClass, rng.Int63())).Train
		pool[i] = job{data: data, labels: labels, queries: ts.Rows(q), qlabels: ts.Labels(q)}
	}
	return pool
}
