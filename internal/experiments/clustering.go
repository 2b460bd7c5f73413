package experiments

import (
	"math/rand"
	"sync"

	"kshape/internal/cluster"
	"kshape/internal/core"
	"kshape/internal/dataset"
	"kshape/internal/dist"
	"kshape/internal/eval"
	"kshape/internal/obs"
	"kshape/internal/ts"
)

// ClusterBaseline sweeps k-AVG+ED, the baseline row of Tables 3 and 4.
func ClusterBaseline(cfg Config) Row {
	return cfg.sweep(cfg.clusterMethod(cluster.NewKAvgED()))[0]
}

// Table3 reproduces the scalable clustering comparison: k-AVG+SBD,
// k-AVG+DTW, KSC, k-DBA, k-Shape+DTW, and k-Shape against base (Rows[0],
// from ClusterBaseline), by Rand Index over the fused train+test split of
// every dataset, averaged over Config.Runs random initializations.
func Table3(cfg Config, base Row) Comparison {
	return compare(append([]Row{base}, cfg.sweep(
		cfg.clusterMethod(cluster.NewKAvgSBD()),
		cfg.clusterMethod(cluster.NewKAvgDTW()),
		cfg.clusterMethod(cluster.NewKSC()),
		cfg.clusterMethod(cluster.NewKDBA()),
		cfg.clusterMethod(cluster.NewKShapeDTW()),
		cfg.clusterMethod(cluster.NewKShape()),
	)...))
}

// Table4 reproduces the non-scalable clustering comparison — hierarchical
// (three linkages), spectral, and PAM, each with ED, cDTW5, and SBD —
// against base (Rows[0], from ClusterBaseline). Each dataset's pairwise
// dissimilarity matrix under a measure is built once per call, by the
// first method that needs it, and shared with the measure's other methods;
// the spectral embedding is shared across its restarts the same way. The
// methods sweep one at a time, so a build lands in the records of the
// method that needed it first.
func Table4(cfg Config, base Row) Comparison {
	rows := []Row{base}
	measures := []dist.Measure{
		dist.EDMeasure{},
		dist.NewCDTWFrac("cDTW5", 0.05),
		dist.SBDMeasure{},
	}
	// Row order mirrors the paper's Table 4: H-S, H-A, H-C, S, PAM — each
	// expanded by measure.
	for _, meas := range measures {
		s := cluster.NewSpectral(meas)
		matrices := make([]func() [][]float64, len(cfg.Datasets))
		embeddings := make([]func() ([][]float64, error), len(cfg.Datasets))
		for d, ds := range cfg.Datasets {
			matrices[d] = sync.OnceValue(func() [][]float64 {
				return dist.PairwiseMatrixWorkers(meas, ts.Rows(ds.All()), 1)
			})
			embeddings[d] = sync.OnceValues(func() ([][]float64, error) {
				return s.Embed(matrices[d](), ds.K, 1)
			})
		}
		for _, linkage := range []cluster.Linkage{cluster.SingleLinkage, cluster.AverageLinkage, cluster.CompleteLinkage} {
			h := cluster.NewHierarchical(linkage, meas)
			rows = append(rows, cfg.sweep(method{h.Name(), obs.ScoreRandIndex, 1, func(d int, _ *rand.Rand) (obs.RunRecord, bool) {
				ds := cfg.Datasets[d]
				res, err := h.ClusterWithMatrix(ts.Rows(ds.All()), matrices[d](), ds.K)
				return randIndexRecord(res, err, ds)
			}})...)
		}
		rows = append(rows, cfg.sweep(method{s.Name(), obs.ScoreRandIndex, cfg.SpectralRuns, func(d int, rng *rand.Rand) (obs.RunRecord, bool) {
			ds := cfg.Datasets[d]
			emb, err := embeddings[d]()
			if err != nil {
				return obs.RunRecord{}, false
			}
			res, err := s.ClusterEmbedding(emb, core.Config{K: ds.K, Rand: rng, Workers: 1})
			return randIndexRecord(res, err, ds)
		}})...)
		p := cluster.NewPAM(meas)
		rows = append(rows, cfg.sweep(method{p.Name(), obs.ScoreRandIndex, cfg.Runs, func(d int, rng *rand.Rand) (obs.RunRecord, bool) {
			ds := cfg.Datasets[d]
			res, err := p.ClusterWithMatrix(ts.Rows(ds.All()), matrices[d](), core.Config{K: ds.K, Rand: rng, Workers: 1})
			return randIndexRecord(res, err, ds)
		}})...)
	}
	return compare(rows)
}

// clusterMethod scores m by Rand Index, averaged over Config.Runs
// restarts run through cluster.Run. With a recorder installed, each record
// carries its run's per-iteration trajectory.
func (c Config) clusterMethod(m cluster.Clusterer) method {
	observed := obs.ActiveRecorder() != nil
	return method{m.Name(), obs.ScoreRandIndex, c.Runs, func(d int, rng *rand.Rand) (obs.RunRecord, bool) {
		ds := c.Datasets[d]
		run := core.Config{K: ds.K, Rand: rng, Workers: 1}
		var traj []obs.IterationStats
		if observed {
			run.OnIteration = func(st obs.IterationStats) { traj = append(traj, st) }
		}
		res, err := cluster.Run(m, ts.Rows(ds.All()), run)
		rec, ok := randIndexRecord(res, err, ds)
		rec.Trajectory = traj
		return rec, ok
	}}
}

// randIndexRecord scores a clustering of ds's fused split by Rand Index.
func randIndexRecord(res *core.Result, err error, ds dataset.Dataset) (obs.RunRecord, bool) {
	if err != nil {
		return obs.RunRecord{}, false
	}
	return obs.RunRecord{
		Score:      eval.RandIndex(res.Labels, ts.Labels(ds.All())),
		Iterations: res.Iterations,
		Converged:  res.Converged,
	}, true
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
func Fig7(cfg Config, t3 Comparison) Fig7Result {
	names := make([]string, len(cfg.Datasets))
	for i, ds := range cfg.Datasets {
		names[i] = ds.Name
	}
	return Fig7Result{
		Names:  names,
		KShape: t3.RowByName("k-Shape").Scores,
		KSC:    t3.RowByName("KSC").Scores,
		KDBA:   t3.RowByName("k-DBA").Scores,
	}
}

// Fig8 runs the Friedman + Nemenyi analysis over the k-means variants of
// Figure 8: k-Shape, k-AVG+ED, KSC, k-DBA.
func Fig8(cfg Config, t3 Comparison) RankResult {
	names := []string{"k-Shape", "k-AVG+ED", "KSC", "k-DBA"}
	return rankAnalysis(names, func(name string) []float64 {
		return t3.RowByName(name).Scores
	}, len(cfg.Datasets))
}

// Fig9 runs the Friedman + Nemenyi analysis over the methods that beat
// k-AVG+ED (Figure 9): k-Shape, PAM+SBD, PAM+cDTW, S+SBD, plus k-AVG+ED.
func Fig9(cfg Config, t3, t4 Comparison) RankResult {
	get := func(name string) []float64 {
		if r := t3.RowByName(name); r != nil {
			return r.Scores
		}
		return t4.RowByName(name).Scores
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
