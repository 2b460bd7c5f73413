package experiments

import (
	"math/rand"
	"sync"
	"time"

	"kshape/internal/cluster"
	"kshape/internal/core"
	"kshape/internal/dataset"
	"kshape/internal/dist"
	"kshape/internal/eval"
	"kshape/internal/obs"
	"kshape/internal/par"
	"kshape/internal/stats"
	"kshape/internal/ts"
)

// ClusterRow is one row of Table 3 or Table 4.
type ClusterRow struct {
	Name string
	// RandIndexes holds the per-dataset Rand Index (averaged over runs for
	// randomized methods), aligned with Config.Datasets.
	RandIndexes []float64
	// Greater/Equal/Less count datasets vs the k-AVG+ED baseline.
	Greater, Equal, Less int
	// Better (Worse) is true when the method beats (loses to) k-AVG+ED with
	// Wilcoxon significance at the paper's 99% confidence.
	Better, Worse bool
	// AvgRandIndex is the mean Rand Index across datasets.
	AvgRandIndex float64
	// RuntimeRatio is total clustering time divided by k-AVG+ED's
	// (reported for the scalable methods of Table 3).
	RuntimeRatio float64
	// Runtime is the raw wall time.
	Runtime time.Duration
}

// Table3Result aggregates the scalable-methods comparison.
type Table3Result struct {
	// Baseline is the k-AVG+ED row all others are compared against.
	Baseline ClusterRow
	Rows     []ClusterRow
}

// Table3 reproduces the scalable clustering comparison: k-AVG+SBD,
// k-AVG+DTW, KSC, k-DBA, k-Shape+DTW, and k-Shape against k-AVG+ED, by
// Rand Index over the fused train+test split of every dataset, averaged
// over Config.Runs random initializations.
func Table3(cfg Config) Table3Result {
	methods := []cluster.Clusterer{
		cluster.NewKAvgSBD(),
		cluster.NewKAvgDTW(),
		cluster.NewKSC(),
		cluster.NewKDBA(),
		cluster.NewKShapeDTW(),
		cluster.NewKShape(),
	}
	baseline := runClusterer(cfg, cluster.NewKAvgED(), cfg.Runs)
	rows := make([]ClusterRow, len(methods))
	for i, m := range methods {
		rows[i] = runClusterer(cfg, m, cfg.Runs)
		finishRow(&rows[i], baseline)
	}
	finishRow(&baseline, baseline)
	return Table3Result{Baseline: baseline, Rows: rows}
}

// Table4Result aggregates the non-scalable-methods comparison.
type Table4Result struct {
	Baseline ClusterRow
	Rows     []ClusterRow
}

// Table4 reproduces the non-scalable clustering comparison — hierarchical
// (three linkages), spectral, and PAM, each with ED, cDTW5, and SBD —
// against k-AVG+ED. The pairwise dissimilarity matrix of each (dataset,
// measure) pair is computed once and shared across the methods that need
// it, as any practical implementation would.
func Table4(cfg Config) Table4Result {
	baseline := runClusterer(cfg, cluster.NewKAvgED(), cfg.Runs)
	finishRow(&baseline, baseline)

	measures := []dist.Measure{
		dist.EDMeasure{},
		dist.NewCDTWFrac("cDTW5", 0.05),
		dist.SBDMeasure{},
	}
	// Row order mirrors the paper's Table 4: H-S, H-A, H-C, S, PAM — each
	// expanded by measure.
	var rows []ClusterRow
	for _, meas := range measures {
		for _, linkage := range []cluster.Linkage{cluster.SingleLinkage, cluster.AverageLinkage, cluster.CompleteLinkage} {
			rows = append(rows, runMatrixClusterer(cfg, matrixJob{
				name:    cluster.NewHierarchical(linkage, meas).Name(),
				measure: meas,
				linkage: linkage,
				kind:    jobHierarchical,
			}))
		}
		rows = append(rows, runMatrixClusterer(cfg, matrixJob{
			name:    "S+" + meas.Name(),
			measure: meas,
			kind:    jobSpectral,
			runs:    cfg.SpectralRuns,
		}))
		rows = append(rows, runMatrixClusterer(cfg, matrixJob{
			name:    "PAM+" + meas.Name(),
			measure: meas,
			kind:    jobPAM,
			runs:    cfg.Runs,
		}))
	}
	for i := range rows {
		finishRow(&rows[i], baseline)
	}
	return Table4Result{Baseline: baseline, Rows: rows}
}

// finishRow fills the comparison columns of row against the baseline.
func finishRow(row *ClusterRow, baseline ClusterRow) {
	row.AvgRandIndex = Mean(row.RandIndexes)
	row.Greater, row.Equal, row.Less = CompareCounts(row.RandIndexes, baseline.RandIndexes)
	row.Better = stats.SignificantlyBetter(row.RandIndexes, baseline.RandIndexes, 0.99)
	row.Worse = stats.SignificantlyBetter(baseline.RandIndexes, row.RandIndexes, 0.99)
	if baseline.Runtime > 0 {
		row.RuntimeRatio = float64(row.Runtime) / float64(baseline.Runtime)
	}
}

// runClusterer evaluates one scalable clusterer across all datasets,
// averaging the Rand Index over runs random restarts. Datasets execute in
// parallel; seeding is deterministic per (dataset, run).
func runClusterer(cfg Config, c cluster.Clusterer, runs int) ClusterRow {
	datasets := cfg.Datasets
	row := ClusterRow{Name: c.Name(), RandIndexes: make([]float64, len(datasets))}
	if runs < 1 {
		runs = 1
	}
	meter := cfg.runMeter()
	sw := obs.NewStopwatch()
	cfg.parallelOver(len(datasets), func(d int) {
		ds := datasets[d]
		data := ts.Rows(ds.All())
		truth := ts.Labels(ds.All())
		sum := 0.0
		count := 0
		for r := 0; r < runs; r++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(d)*1000 + int64(r)))
			ri, ok := observedRun(meter, c, data, truth, ds.Name, ds.K, r, rng)
			if !ok {
				continue
			}
			sum += ri
			count++
			if c.Deterministic() {
				break
			}
		}
		if count > 0 {
			row.RandIndexes[d] = sum / float64(count)
		}
	})
	row.Runtime = sw.Elapsed()
	cfg.progress("clustering sweep done", "method", c.Name(), "seconds", row.Runtime.Seconds(), "avg_rand_index", Mean(row.RandIndexes))
	return row
}

// observedRun executes one clustering run on one worker (the sweep
// parallelizes across datasets) and returns its Rand Index. With a
// recorder it appends the run's record, including the per-iteration
// trajectory.
func observedRun(meter runMeter, c cluster.Clusterer, data [][]float64, truth []int, dsName string, k, run int, rng *rand.Rand) (float64, bool) {
	cfg := core.Config{K: k, Rand: rng, Workers: 1}
	var traj []obs.IterationStats
	if meter.rec != nil {
		cfg.OnIteration = func(st obs.IterationStats) { traj = append(traj, st) }
	}
	done := meter.start()
	res, err := cluster.Run(c, data, cfg)
	if err != nil {
		return 0, false
	}
	ri := eval.RandIndex(res.Labels, truth)
	done(obs.RunRecord{
		Method:     c.Name(),
		Dataset:    dsName,
		Run:        run,
		Score:      ri,
		ScoreKind:  obs.ScoreRandIndex,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Trajectory: traj,
	})
	return ri, true
}

type matrixJobKind int

const (
	jobHierarchical matrixJobKind = iota
	jobSpectral
	jobPAM
)

type matrixJob struct {
	name    string
	measure dist.Measure
	linkage cluster.Linkage
	kind    matrixJobKind
	runs    int
}

// matrixCache shares pairwise dissimilarity matrices across Table 4 methods
// within one process.
var matrixCache = struct {
	sync.Mutex
	m map[string][][]float64
}{m: map[string][][]float64{}}

func cachedMatrix(dsName string, meas dist.Measure, data [][]float64) [][]float64 {
	key := dsName + "|" + meas.Name()
	matrixCache.Lock()
	if d, ok := matrixCache.m[key]; ok {
		matrixCache.Unlock()
		return d
	}
	matrixCache.Unlock()
	d := dist.PairwiseMatrix(meas, data)
	matrixCache.Lock()
	matrixCache.m[key] = d
	matrixCache.Unlock()
	return d
}

// ResetMatrixCache clears the shared dissimilarity-matrix cache (used by
// benchmarks that must measure matrix construction).
func ResetMatrixCache() {
	matrixCache.Lock()
	matrixCache.m = map[string][][]float64{}
	matrixCache.Unlock()
}

// runMatrixClusterer evaluates one non-scalable method across all datasets.
func runMatrixClusterer(cfg Config, job matrixJob) ClusterRow {
	datasets := cfg.Datasets
	row := ClusterRow{Name: job.name, RandIndexes: make([]float64, len(datasets))}
	runs := job.runs
	if runs < 1 {
		runs = 1
	}
	meter := cfg.runMeter()
	sw := obs.NewStopwatch()
	for d, ds := range datasets {
		data := ts.Rows(ds.All())
		truth := ts.Labels(ds.All())
		done := meter.start()
		dm := cachedMatrix(ds.Name, job.measure, data)
		switch job.kind {
		case jobHierarchical:
			h := cluster.NewHierarchical(job.linkage, job.measure)
			res, err := h.ClusterWithMatrix(data, dm, ds.K)
			if err == nil {
				row.RandIndexes[d] = eval.RandIndex(res.Labels, truth)
			}
		case jobSpectral:
			s := cluster.NewSpectral(job.measure)
			emb, err := s.Embed(dm, ds.K, 0)
			if err != nil {
				continue
			}
			sum, count := 0.0, 0
			for r := 0; r < runs; r++ {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(d)*1000 + int64(r)))
				res, err := s.ClusterEmbedding(emb, core.Config{K: ds.K, Rand: rng})
				if err != nil {
					continue
				}
				sum += eval.RandIndex(res.Labels, truth)
				count++
			}
			if count > 0 {
				row.RandIndexes[d] = sum / float64(count)
			}
		case jobPAM:
			p := cluster.NewPAM(job.measure)
			sum, count := 0.0, 0
			for r := 0; r < runs; r++ {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(d)*1000 + int64(r)))
				res, err := p.ClusterWithMatrix(data, dm, core.Config{K: ds.K, Rand: rng})
				if err != nil {
					continue
				}
				sum += eval.RandIndex(res.Labels, truth)
				count++
			}
			if count > 0 {
				row.RandIndexes[d] = sum / float64(count)
			}
		}
		// Matrix methods have no refinement loop to trace; the record
		// carries wall time, including any matrix build this method
		// triggered first.
		done(obs.RunRecord{
			Method:    job.name,
			Dataset:   ds.Name,
			Score:     row.RandIndexes[d],
			ScoreKind: obs.ScoreRandIndex,
		})
	}
	row.Runtime = sw.Elapsed()
	cfg.progress("clustering sweep done", "method", job.name, "seconds", row.Runtime.Seconds(), "avg_rand_index", Mean(row.RandIndexes))
	return row
}

// parallelOver runs fn(i) for i in [0, n) across the configured number of
// workers, on the shared internal/par substrate.
func (c Config) parallelOver(n int, fn func(int)) {
	par.For(c.Workers, n, fn)
}

// RowByName returns the named row (including the baseline), or nil.
func (t Table3Result) RowByName(name string) *ClusterRow {
	if t.Baseline.Name == name {
		return &t.Baseline
	}
	for i := range t.Rows {
		if t.Rows[i].Name == name {
			return &t.Rows[i]
		}
	}
	return nil
}

// RowByName returns the named row (including the baseline), or nil.
func (t Table4Result) RowByName(name string) *ClusterRow {
	if t.Baseline.Name == name {
		return &t.Baseline
	}
	for i := range t.Rows {
		if t.Rows[i].Name == name {
			return &t.Rows[i]
		}
	}
	return nil
}

// Fig7Result holds the Rand Index pairs behind Figure 7's scatter plots
// (k-Shape vs KSC, k-Shape vs k-DBA).
type Fig7Result struct {
	Names  []string
	KShape []float64
	KSC    []float64
	KDBA   []float64
}

// Fig7 derives the Figure 7 scatter data from a Table 3 result.
func Fig7(cfg Config, t3 Table3Result) Fig7Result {
	names := make([]string, len(cfg.Datasets))
	for i, ds := range cfg.Datasets {
		names[i] = ds.Name
	}
	return Fig7Result{
		Names:  names,
		KShape: t3.RowByName("k-Shape").RandIndexes,
		KSC:    t3.RowByName("KSC").RandIndexes,
		KDBA:   t3.RowByName("k-DBA").RandIndexes,
	}
}

// Fig8 runs the Friedman + Nemenyi analysis over the k-means variants of
// Figure 8: k-Shape, k-AVG+ED, KSC, k-DBA.
func Fig8(cfg Config, t3 Table3Result) RankResult {
	names := []string{"k-Shape", "k-AVG+ED", "KSC", "k-DBA"}
	return rankAnalysis(names, func(name string) []float64 {
		return t3.RowByName(name).RandIndexes
	}, len(cfg.Datasets))
}

// Fig9 runs the Friedman + Nemenyi analysis over the methods that beat
// k-AVG+ED (Figure 9): k-Shape, PAM+SBD, PAM+cDTW, S+SBD, plus k-AVG+ED.
func Fig9(cfg Config, t3 Table3Result, t4 Table4Result) RankResult {
	get := func(name string) []float64 {
		if r := t3.RowByName(name); r != nil {
			return r.RandIndexes
		}
		return t4.RowByName(name).RandIndexes
	}
	names := []string{"k-Shape", "PAM+SBD", "PAM+cDTW5", "S+SBD", "k-AVG+ED"}
	return rankAnalysis(names, get, len(cfg.Datasets))
}

// ECGDataset returns the ECG-like dataset used by the Figure 1/4
// illustrations.
func ECGDataset() dataset.Dataset {
	ds, ok := dataset.ArchiveByName("ECGLike")
	if !ok {
		panic("experiments: ECGLike missing from archive")
	}
	return ds
}
