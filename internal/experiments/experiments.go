// Package experiments regenerates every table and figure of the k-Shape
// paper's evaluation (Section 5 and Appendices A-B) on the synthetic
// archive: Table 2 (distance measures), Table 3 (scalable clustering),
// Table 4 (non-scalable clustering), and Figures 2-12. Each experiment
// returns a structured result that cmd/kbench renders as text and that
// bench_test.go exercises under testing.B.
package experiments

import (
	"log/slog"
	"math/rand"

	"kshape/internal/dataset"
	"kshape/internal/obs"
	"kshape/internal/par"
)

// Config controls experiment scale. The zero value is unusable; call
// ReducedConfig.
type Config struct {
	// Datasets to evaluate. Defaults to the full 48-dataset archive.
	Datasets []dataset.Dataset
	// Runs is the number of random restarts averaged for partitional
	// methods (the paper uses 10).
	Runs int
	// SpectralRuns is the number of restarts for spectral methods (the
	// paper uses 100).
	SpectralRuns int
	// Seed drives all randomized initializations.
	Seed int64
	// MaxWindowFrac bounds the cDTWopt leave-one-out window scan
	// (the paper scans up to 20% windows; we default to 0.10 which covers
	// the 4.5% average optimum the paper reports).
	MaxWindowFrac float64
	// Logger, if non-nil, receives one structured record per completed
	// unit of work (method, dataset, wall time, score fields) at info
	// level. cmd/kbench wires its -log-level/-log-json flags here.
	Logger *slog.Logger
	// Workers bounds the dataset-level parallelism of the experiment
	// sweeps (par.Resolve semantics: <= 0 means runtime.NumCPU(), 1 means
	// serial). Individual clustering runs inside a sweep always execute
	// serially; results are identical for every value. With a flight
	// recorder installed, every unit of work appends an obs.RunRecord to
	// its run report, carrying a kernel-counter delta only at 1 worker.
	Workers int
}

// ReducedConfig is a down-scaled configuration for smoke tests and
// testing.B benchmarks: the first nDatasets archive entries and fewer runs.
func ReducedConfig(nDatasets int) Config {
	specs := dataset.ArchiveSpecs()
	if nDatasets > len(specs) {
		nDatasets = len(specs)
	}
	ds := make([]dataset.Dataset, nDatasets)
	for i := 0; i < nDatasets; i++ {
		ds[i] = dataset.Generate(specs[i])
	}
	return Config{
		Datasets:      ds,
		Runs:          2,
		SpectralRuns:  2,
		Seed:          1,
		MaxWindowFrac: 0.10,
	}
}

// progress reports one completed unit of work to the Logger, if any.
// attrs are alternating key/value pairs (slog convention), logged as
// structured fields.
func (c Config) progress(msg string, attrs ...any) {
	if c.Logger != nil {
		c.Logger.Info(msg, attrs...)
	}
}

func (c Config) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed + offset))
}

// CompareCounts tallies, per dataset, whether each score in a beats, ties,
// or loses to the corresponding score in b (the ">", "=", "<" columns of
// Tables 2-4). Scores are compared after rounding to 3 decimals, the
// resolution at which the paper's tables report ties.
func CompareCounts(a, b []float64) (greater, equal, less int) {
	round := func(x float64) float64 {
		return float64(int(x*1000+0.5)) / 1000
	}
	for i := range a {
		switch {
		case round(a[i]) > round(b[i]):
			greater++
		//lint:ignore floatcmp exact tie in the rounded scores mirrors the paper's >/=/< counting
		case round(a[i]) == round(b[i]):
			equal++
		default:
			less++
		}
	}
	return greater, equal, less
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runMeter measures the units of work of one sweep for the flight
// recorder's run report. It loads the active recorder once; with none
// installed it records nothing.
type runMeter struct {
	rec *obs.Recorder
	// counted is set when the sweep runs one unit at a time, so that the
	// global counter delta around a unit belongs to that unit alone.
	counted bool
}

func (c Config) runMeter() runMeter {
	rec := obs.ActiveRecorder()
	return runMeter{rec: rec, counted: rec != nil && par.Resolve(c.Workers) == 1}
}

// start opens one unit of work. The returned function stamps a record with
// the unit's wall time (and counter delta, when attributable) and appends
// it to the run report.
func (m runMeter) start() func(obs.RunRecord) {
	if m.rec == nil {
		return func(obs.RunRecord) {}
	}
	var before obs.Counters
	if m.counted {
		before = obs.ReadCounters()
	}
	sw := obs.NewStopwatch()
	return func(r obs.RunRecord) {
		r.Seconds = sw.Seconds()
		if m.counted {
			d := obs.ReadCounters().Sub(before)
			r.Counters = &d
		}
		m.rec.RecordRun(r)
	}
}
