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
	"sync/atomic"
	"time"

	"kshape/internal/dataset"
	"kshape/internal/obs"
	"kshape/internal/par"
	"kshape/internal/stats"
	"kshape/internal/ts"
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
	// Workers bounds the parallelism of the experiment sweeps, which
	// spread their units of work over it, and of Figure 12's timed runs
	// (par.Resolve semantics: <= 0 means runtime.NumCPU(), 1 means
	// serial). Every unit — one restart of
	// a method on one dataset, a 1-NN evaluation, a window tuning, a
	// matrix build — runs serially, so at 1 worker the whole sweep is
	// single-threaded; results are identical for every value. With a
	// flight recorder installed, every scored unit appends an
	// obs.RunRecord to its run report, carrying a kernel-counter delta
	// only at 1 worker.
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

// Row is one method's line in a scored comparison (Tables 2-4, table2x,
// the ablations).
type Row struct {
	Name string
	// Scores holds the per-dataset score, aligned with Config.Datasets:
	// 1-NN test accuracy for a distance measure, Rand Index (averaged over
	// restarts) for a clustering method.
	Scores []float64
	// Greater/Equal/Less count datasets vs the baseline row.
	Greater, Equal, Less int
	// Better (Worse) is true when the row beats (loses to) the baseline
	// with Wilcoxon significance at the paper's 99% confidence.
	Better, Worse bool
	// AvgScore is the mean score across datasets.
	AvgScore float64
	// RuntimeRatio is the row's Runtime divided by the baseline's.
	RuntimeRatio float64
	// Runtime is the wall time of the row's units (one per dataset and
	// restart) summed: the time the method took, however many workers
	// shared the sweep.
	Runtime time.Duration
}

// Comparison is one scored comparison over the configured datasets. Rows[0]
// is the baseline every row, itself included, is compared against.
type Comparison struct {
	Rows []Row
}

// RowByName returns the named row, or nil.
func (c Comparison) RowByName(name string) *Row {
	for i := range c.Rows {
		if c.Rows[i].Name == name {
			return &c.Rows[i]
		}
	}
	return nil
}

// compare fills the comparison columns of every row against rows[0].
func compare(rows []Row) Comparison {
	base := rows[0]
	for i := range rows {
		r := &rows[i]
		r.AvgScore = ts.Mean(r.Scores)
		r.Greater, r.Equal, r.Less = CompareCounts(r.Scores, base.Scores)
		r.Better = stats.SignificantlyBetter(r.Scores, base.Scores, 0.99)
		r.Worse = stats.SignificantlyBetter(base.Scores, r.Scores, 0.99)
		if base.Runtime > 0 {
			r.RuntimeRatio = float64(r.Runtime) / float64(base.Runtime)
		}
	}
	return Comparison{Rows: rows}
}

// method is one row of a sweep: its name, the obs.RunRecord score kind of
// its units, its restarts per dataset, and its unit.
type method struct {
	name, kind string
	runs       int
	// score runs one restart on dataset d, serially (Workers: 1), drawing
	// any randomness from rng. It returns the restart's record — the
	// sweep fills in the method, dataset, restart, score kind, wall time
	// and counters — or false when the run failed.
	score func(d int, rng *rand.Rand) (obs.RunRecord, bool)
}

// sweep scores methods on every configured dataset, the protocol all
// scored tables share. Every (method, restart, dataset) unit is one
// serial run, and the units spread over c.Workers. Restart r of dataset d
// draws from seed c.Seed + d·1000 + r; the dataset's score is the mean
// over the restarts that succeeded, 0 when none did. With a flight
// recorder installed, every successful unit appends its record.
func (c Config) sweep(methods ...method) []Row {
	type job struct{ m, r, d int }
	var jobs []job
	rows := make([]Row, len(methods))
	for i, m := range methods {
		rows[i] = Row{Name: m.name, Scores: make([]float64, len(c.Datasets))}
		for r := 0; r < max(m.runs, 1); r++ {
			for d := range c.Datasets {
				jobs = append(jobs, job{i, r, d})
			}
		}
	}
	// Each unit writes only its own slots; the fold below is serial.
	scores := make([]float64, len(jobs))
	ok := make([]bool, len(jobs))
	elapsed := make([]time.Duration, len(jobs))
	meter := c.runMeter()
	run := func(u int) {
		j, m := jobs[u], methods[jobs[u].m]
		sw := obs.NewStopwatch()
		done := meter.start()
		rec, succeeded := m.score(j.d, rand.New(rand.NewSource(c.Seed+int64(j.d)*1000+int64(j.r))))
		if succeeded {
			rec.Method, rec.Dataset, rec.Run, rec.ScoreKind = m.name, c.Datasets[j.d].Name, j.r, m.kind
			done(rec)
			scores[u], ok[u] = rec.Score, true
		}
		elapsed[u] = sw.Elapsed()
	}
	// Units are few, long and uneven, so each worker pulls the next unit
	// from a shared cursor: par.For's contiguous chunks would group
	// neighbouring units and could end the sweep on one worker's run of
	// long ones.
	var next atomic.Int64
	workers := min(par.Resolve(c.Workers), len(jobs))
	par.For(workers, workers, func(int) {
		for u := int(next.Add(1) - 1); u < len(jobs); u = int(next.Add(1) - 1) {
			run(u)
		}
	})
	// Restarts fold in ascending order, so every mean is the serial one.
	counts := make([][]int, len(methods))
	for i := range counts {
		counts[i] = make([]int, len(c.Datasets))
	}
	for u, j := range jobs {
		rows[j.m].Runtime += elapsed[u]
		if ok[u] {
			rows[j.m].Scores[j.d] += scores[u]
			counts[j.m][j.d]++
		}
	}
	for i := range rows {
		for d, n := range counts[i] {
			if n > 0 {
				rows[i].Scores[d] /= float64(n)
			}
		}
		c.progress("sweep done", "method", rows[i].Name, "seconds", rows[i].Runtime.Seconds(), "avg_score", ts.Mean(rows[i].Scores))
	}
	return rows
}
