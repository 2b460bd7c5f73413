package experiments

import (
	"math/rand"

	"kshape/internal/avg"
	"kshape/internal/core"
	"kshape/internal/dist"
	"kshape/internal/eval"
	"kshape/internal/obs"
	"kshape/internal/par"
	"kshape/internal/ts"
)

// AblationResult compares k-Shape against variants that remove one design
// choice at a time, quantifying how much each contributes (the design
// choices Section 3 argues for: the coefficient normalization NCCc, and
// aligning members to the previous centroid before shape extraction).
type AblationResult struct {
	Rows []ClusterRow
}

// Ablations runs the design-choice ablation study over the configured
// datasets:
//
//   - "k-Shape"            — the full algorithm (reference);
//   - "k-Shape/NCCu"       — assignment distance 1 − max NCCu instead of NCCc;
//   - "k-Shape/NCCb"       — assignment distance 1 − max NCCb; note that on
//     z-normalized input every series shares one norm, so NCCb induces the
//     same ordering as NCCc and this variant ties the reference exactly —
//     the ablation that *bites* is NCCu, whose per-lag overlap scaling
//     reorders candidates;
//   - "k-Shape/no-align"   — shape extraction without aligning members to
//     the previous centroid;
//   - "k-AVG+SBD"          — arithmetic-mean centroids (ablating shape
//     extraction entirely; also a Table 3 row).
//
// Baseline for the >/=/< comparison columns is the full k-Shape.
func Ablations(cfg Config) AblationResult {
	type variant struct {
		name     string
		distance core.DistanceFunc
		centroid core.CentroidFunc
	}
	nccDist := func(norm dist.NCCNorm) core.DistanceFunc {
		return func(c, x []float64) float64 {
			v, _ := dist.MaxNCC(c, x, norm)
			return 1 - v
		}
	}
	variants := []variant{
		{
			name:     "k-Shape",
			distance: func(c, x []float64) float64 { return dist.SBDDist(c, x) },
			centroid: avg.ShapeExtraction,
		},
		{
			name:     "k-Shape/NCCu",
			distance: nccDist(dist.NCCu),
			centroid: avg.ShapeExtraction,
		},
		{
			name:     "k-Shape/NCCb",
			distance: nccDist(dist.NCCb),
			centroid: avg.ShapeExtraction,
		},
		{
			name:     "k-Shape/no-align",
			distance: func(c, x []float64) float64 { return dist.SBDDist(c, x) },
			centroid: func(members [][]float64, prev []float64) []float64 {
				return avg.ShapeExtraction(members, nil) // never align
			},
		},
		{
			name:     "k-AVG+SBD",
			distance: func(c, x []float64) float64 { return dist.SBDDist(c, x) },
			centroid: avg.Mean,
		},
	}

	rows := make([]ClusterRow, len(variants))
	for vi, v := range variants {
		row := ClusterRow{Name: v.name, RandIndexes: make([]float64, len(cfg.Datasets))}
		sw := obs.NewStopwatch()
		par.For(cfg.Workers, len(cfg.Datasets), func(d int) {
			ds := cfg.Datasets[d]
			data := ts.Rows(ds.All())
			truth := ts.Labels(ds.All())
			sum, count := 0.0, 0
			for r := 0; r < cfg.Runs; r++ {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(d)*1000 + int64(r)))
				res, err := core.Lloyd(data, core.Config{K: ds.K, Rand: rng}, v.distance, v.centroid)
				if err != nil {
					continue
				}
				sum += eval.RandIndex(res.Labels, truth)
				count++
			}
			if count > 0 {
				row.RandIndexes[d] = sum / float64(count)
			}
		})
		row.Runtime = sw.Elapsed()
		rows[vi] = row
		cfg.progress("ablation done", "variant", v.name, "avg_rand_index", Mean(row.RandIndexes))
	}
	for i := range rows {
		finishRow(&rows[i], rows[0])
	}
	return AblationResult{Rows: rows}
}
