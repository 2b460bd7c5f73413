package experiments

import (
	"math/rand"
	"time"

	"kshape/internal/cluster"
	"kshape/internal/core"
	"kshape/internal/dist"
	"kshape/internal/eval"
	"kshape/internal/obs"
	"kshape/internal/par"
	"kshape/internal/ts"
)

// KEstimationRow records how an intrinsic criterion estimated the number of
// clusters for one dataset.
type KEstimationRow struct {
	Dataset string
	TrueK   int
	// SilhouetteK, DBK, CHK are the k picked by each criterion.
	SilhouetteK, DBK, CHK int
}

// KEstimationResult aggregates the k-estimation study.
type KEstimationResult struct {
	Rows []KEstimationRow
	// Exact counts, per criterion, how often the estimate equals the true
	// k; WithinOne counts |estimate − true| <= 1.
	SilExact, SilWithinOne int
	DBExact, DBWithinOne   int
	CHExact, CHWithinOne   int
	Runtime                time.Duration
}

// KEstimation evaluates the paper's footnote-2 recipe — choose k by
// sweeping it and scoring each clustering with an intrinsic criterion — on
// the archive, comparing three criteria: mean silhouette under SBD (picked
// by its maximum), Davies-Bouldin on the z-normalized rows (minimum), and
// Calinski-Harabasz (maximum). Candidate k ranges over [2, trueK+3].
func KEstimation(cfg Config) KEstimationResult {
	var res KEstimationResult
	sw := obs.NewStopwatch()
	res.Rows = make([]KEstimationRow, len(cfg.Datasets))
	par.For(cfg.Workers, len(cfg.Datasets), func(di int) {
		ds := cfg.Datasets[di]
		data := ts.Rows(ds.All())
		d := dist.PairwiseMatrixWorkers(dist.SBDMeasure{}, data, 1) // datasets already run in parallel
		kMax := ds.K + 3
		if kMax > len(data)-1 {
			kMax = len(data) - 1
		}
		row := KEstimationRow{Dataset: ds.Name, TrueK: ds.K}
		bestSil, bestDB, bestCH := -2.0, -1.0, -1.0
		for k := 2; k <= kMax; k++ {
			// Best-of-runs labeling per k, as EstimateK does.
			var labels []int
			bestInertia := -1.0
			for r := 0; r < cfg.Runs; r++ {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(di)*1000 + int64(k)*10 + int64(r)))
				out, err := cluster.NewKShape().Cluster(data, core.Config{K: k, Rand: rng, Workers: 1})
				if err != nil {
					continue
				}
				if labels == nil || out.Inertia < bestInertia {
					labels = out.Labels
					bestInertia = out.Inertia
				}
			}
			if labels == nil {
				continue
			}
			if s := eval.Silhouette(d, labels); s > bestSil {
				bestSil, row.SilhouetteK = s, k
			}
			if db := eval.DaviesBouldin(data, labels, k); db > 0 && (bestDB < 0 || db < bestDB) {
				bestDB, row.DBK = db, k
			}
			if ch := eval.CalinskiHarabasz(data, labels, k); ch > bestCH {
				bestCH, row.CHK = ch, k
			}
		}
		res.Rows[di] = row
		cfg.progress("kestimation dataset done",
			"dataset", ds.Name, "true_k", ds.K, "silhouette_k", row.SilhouetteK, "db_k", row.DBK, "ch_k", row.CHK)
	})
	for _, row := range res.Rows {
		tally := func(est int, exact, within *int) {
			if est == row.TrueK {
				*exact++
			}
			if est-row.TrueK <= 1 && row.TrueK-est <= 1 {
				*within++
			}
		}
		tally(row.SilhouetteK, &res.SilExact, &res.SilWithinOne)
		tally(row.DBK, &res.DBExact, &res.DBWithinOne)
		tally(row.CHK, &res.CHExact, &res.CHWithinOne)
	}
	res.Runtime = sw.Elapsed()
	return res
}
