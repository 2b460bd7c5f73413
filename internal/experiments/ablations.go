package experiments

import (
	"kshape/internal/avg"
	"kshape/internal/cluster"
	"kshape/internal/core"
	"kshape/internal/dist"
)

// Ablations runs the design-choice ablation study over the configured
// datasets, comparing k-Shape against variants that remove one design
// choice at a time (the choices Section 3 argues for: the coefficient
// normalization NCCc, and aligning members to the previous centroid
// before shape extraction):
//
//   - "k-Shape"            — the full algorithm (reference, Rows[0]);
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
// Every row, the reference included, runs the generic core.Lloyd loop, so
// the runtime column compares like with like.
func Ablations(cfg Config) Comparison {
	nccDist := func(norm dist.NCCNorm) core.DistanceFunc {
		return func(c, x []float64) float64 {
			v, _ := dist.MaxNCC(c, x, norm)
			return 1 - v
		}
	}
	sbd := func(c, x []float64) float64 { return dist.SBDDist(c, x) }
	variants := []cluster.Clusterer{
		cluster.NewLloyd("k-Shape", sbd, avg.ShapeExtraction),
		cluster.NewLloyd("k-Shape/NCCu", nccDist(dist.NCCu), avg.ShapeExtraction),
		cluster.NewLloyd("k-Shape/NCCb", nccDist(dist.NCCb), avg.ShapeExtraction),
		cluster.NewLloyd("k-Shape/no-align", sbd, func(members [][]float64, prev []float64) []float64 {
			return avg.ShapeExtraction(members, nil) // never align
		}),
		cluster.NewLloyd("k-AVG+SBD", sbd, avg.Mean),
	}
	methods := make([]method, len(variants))
	for i, v := range variants {
		methods[i] = cfg.clusterMethod(v)
	}
	return compare(cfg.sweep(methods...))
}
