package experiments

import (
	"math/rand"

	"kshape/internal/dist"
	"kshape/internal/eval"
	"kshape/internal/obs"
	"kshape/internal/par"
	"kshape/internal/stats"
	"kshape/internal/ts"
)

// Table2Result aggregates the distance-measure comparison; ED is the
// baseline, Rows[0].
type Table2Result struct {
	Comparison
	// TunedWindows holds the cDTWopt window chosen per dataset (in cells).
	TunedWindows []int
	// AvgTunedWindowFrac is the mean tuned window as a fraction of the
	// series length (the paper reports 4.5% across the UCR archive).
	AvgTunedWindowFrac float64
}

// Table2 reproduces the distance-measure evaluation: 1-NN classification
// accuracy and runtime for ED, DTW (±LB_Keogh), cDTWopt/cDTW5/cDTW10
// (±LB_Keogh), and the three SBD implementation variants, over the archive
// train/test splits.
func Table2(cfg Config) Table2Result {
	datasets := cfg.Datasets
	n := len(datasets)

	// Tune cDTWopt windows once per dataset (leave-one-out on train).
	windows := make([]int, n)
	par.For(cfg.Workers, n, func(i int) {
		windows[i], _ = eval.TuneCDTWWindow(datasets[i].Train, cfg.MaxWindowFrac, 1)
		cfg.progress("table2 cDTWopt window tuned", "dataset", datasets[i].Name, "window_cells", windows[i])
	})
	fracSum := 0.0
	for i, w := range windows {
		fracSum += float64(w) / float64(datasets[i].M)
	}

	cdtwWindow := func(frac float64, i int) int {
		w := int(frac*float64(datasets[i].M) + 0.5)
		if w < 1 {
			w = 1
		}
		return w
	}
	cdtwPlain := func(window func(int) int) func(int) float64 {
		return func(i int) float64 {
			return cfg.oneNN(dist.CDTWMeasure{Window: window(i)})(i)
		}
	}
	cdtwLB := func(window func(int) int) func(int) float64 {
		return func(i int) float64 {
			return eval.OneNNAccuracyLB(window(i), datasets[i].Train, datasets[i].Test, 1)
		}
	}
	optW := func(i int) int { return windows[i] }
	w5 := func(i int) int { return cdtwWindow(0.05, i) }
	w10 := func(i int) int { return cdtwWindow(0.10, i) }
	unconstrained := func(i int) int { return datasets[i].M }

	methods := []method{
		accuracyMethod("ED", cfg.oneNN(dist.EDMeasure{})),
		accuracyMethod("DTW", cfg.oneNN(dist.DTWMeasure{})),
		accuracyMethod("DTWLB", cdtwLB(unconstrained)),
		accuracyMethod("cDTWopt", cdtwPlain(optW)),
		accuracyMethod("cDTWoptLB", cdtwLB(optW)),
		accuracyMethod("cDTW5", cdtwPlain(w5)),
		accuracyMethod("cDTW5LB", cdtwLB(w5)),
		accuracyMethod("cDTW10", cdtwPlain(w10)),
		accuracyMethod("cDTW10LB", cdtwLB(w10)),
		accuracyMethod("SBD", cfg.oneNN(dist.SBDMeasure{})),
		accuracyMethod("SBDNoPow2", cfg.oneNN(dist.SBDNoPow2Measure{})),
		accuracyMethod("SBDNoFFT", cfg.oneNN(dist.SBDNoFFTMeasure{})),
	}
	return Table2Result{
		Comparison:         compare(cfg.sweep(methods...)),
		TunedWindows:       windows,
		AvgTunedWindowFrac: fracSum / float64(n),
	}
}

// oneNN returns the 1-NN test accuracy of m on each dataset.
func (c Config) oneNN(m dist.Measure) func(d int) float64 {
	return func(d int) float64 {
		return eval.OneNNAccuracyWorkers(m, c.Datasets[d].Train, c.Datasets[d].Test, 1)
	}
}

// accuracyMethod scores a distance measure by 1-NN accuracy, one
// deterministic run per dataset.
func accuracyMethod(name string, accuracy func(d int) float64) method {
	return method{name, obs.ScoreAccuracy1NN, 1, func(d int, _ *rand.Rand) (obs.RunRecord, bool) {
		return obs.RunRecord{Score: accuracy(d)}, true
	}}
}

// Fig5Result holds the per-dataset accuracy pairs behind the scatter plots
// of Figure 5 (SBD vs ED, SBD vs DTW).
type Fig5Result struct {
	Names []string
	SBD   []float64
	ED    []float64
	DTW   []float64
}

// Fig5 derives the Figure 5 scatter data from a Table 2 result.
func Fig5(cfg Config, t2 Table2Result) Fig5Result {
	names := make([]string, len(cfg.Datasets))
	for i, ds := range cfg.Datasets {
		names[i] = ds.Name
	}
	return Fig5Result{
		Names: names,
		SBD:   t2.RowByName("SBD").Scores,
		ED:    t2.RowByName("ED").Scores,
		DTW:   t2.RowByName("DTW").Scores,
	}
}

// RankResult holds an average-rank comparison with Nemenyi grouping
// (Figures 6, 8 and 9).
type RankResult struct {
	Names    []string
	AvgRanks []float64
	// Order lists method indices best-first.
	Order []int
	// CD is the Nemenyi critical difference at α = 0.05.
	CD float64
	// Groups lists maximal sets of statistically indistinguishable methods.
	Groups [][]int
	// FriedmanP is the p-value of the Friedman test.
	FriedmanP float64
}

// Fig6 runs the Friedman + Nemenyi analysis over cDTWopt, cDTW5, SBD, and
// ED (Figure 6) given a Table 2 result.
func Fig6(cfg Config, t2 Table2Result) RankResult {
	names := []string{"cDTWopt", "cDTW5", "SBD", "ED"}
	return rankAnalysis(names, func(name string) []float64 {
		return t2.RowByName(name).Scores
	}, len(cfg.Datasets))
}

func rankAnalysis(names []string, scores func(string) []float64, n int) RankResult {
	mat := make([][]float64, len(names))
	for i, name := range names {
		mat[i] = scores(name)
	}
	fr := stats.Friedman(mat)
	order, cd, groups := stats.NemenyiGroups(fr.AvgRanks, n)
	return RankResult{
		Names:     names,
		AvgRanks:  fr.AvgRanks,
		Order:     order,
		CD:        cd,
		Groups:    groups,
		FriedmanP: fr.P,
	}
}

// AppendixAResult compares the cross-correlation variants (SBD/NCCc, NCCu,
// NCCb) under one of the Appendix A time-series normalizations
// (Figures 10 and 11).
type AppendixAResult struct {
	Normalization string
	Names         []string
	// Accuracies[v][d] is variant v's accuracy on dataset d.
	Accuracies [][]float64
	// SBDBeatsU / SBDBeatsB count datasets where SBD is strictly better.
	SBDBeatsU, SBDBeatsB int
}

// Normalization selects the Appendix A preprocessing regime.
type Normalization int

const (
	// NormOptimalScaling matches each pair with the least-squares scaling
	// coefficient before the distance computation.
	NormOptimalScaling Normalization = iota
	// NormValues01 rescales each series into [0, 1].
	NormValues01
	// NormZScore z-normalizes each series.
	NormZScore
)

// String names the normalization as in Appendix A.
func (n Normalization) String() string {
	switch n {
	case NormOptimalScaling:
		return "OptimalScaling"
	case NormValues01:
		return "ValuesBetween0-1"
	case NormZScore:
		return "z-normalization"
	}
	return "unknown"
}

// AppendixA reproduces the Figure 10/11 study: sequences are first
// "denormalized" with a random per-sequence amplitude (the archive is
// z-normalized, as the paper notes), then renormalized per the chosen
// scheme, and the three cross-correlation variants are compared by 1-NN
// accuracy.
func AppendixA(cfg Config, norm Normalization) AppendixAResult {
	variants := []dist.Measure{
		dist.SBDMeasure{},
		dist.NCCMeasure{Norm: dist.NCCu},
		dist.NCCMeasure{Norm: dist.NCCb},
	}
	res := AppendixAResult{
		Normalization: norm.String(),
		Names:         []string{"SBD", "NCCu", "NCCb"},
		Accuracies:    make([][]float64, len(variants)),
	}
	// prep denormalizes a split with a random per-sequence amplitude
	// (per Appendix A) and renormalizes it per the chosen scheme. Every
	// variant re-derives dataset d's splits from cfg.rng(d), so all of them
	// see the same draws.
	prep := func(in []ts.Series, rng *rand.Rand) []ts.Series {
		out := make([]ts.Series, len(in))
		for i, s := range in {
			raw := ts.Scale(s.Values, 0.5+4*rng.Float64())
			var vals []float64
			switch norm {
			case NormValues01:
				vals = ts.Normalize01(raw)
			case NormZScore:
				vals = ts.ZNormalize(raw)
			default:
				vals = raw // pairwise optimal scaling happens in the measure
			}
			out[i] = ts.NewLabeled(vals, s.Label)
		}
		return out
	}
	methods := make([]method, len(variants))
	for v, meas := range variants {
		m := meas
		if norm == NormOptimalScaling {
			m = optimalScalingMeasure{base: meas}
		}
		methods[v] = accuracyMethod(res.Names[v]+"/"+norm.String(), func(d int) float64 {
			rng := cfg.rng(int64(d))
			train := prep(cfg.Datasets[d].Train, rng)
			test := prep(cfg.Datasets[d].Test, rng)
			return eval.OneNNAccuracyWorkers(m, train, test, 1)
		})
	}
	for v, row := range cfg.sweep(methods...) {
		res.Accuracies[v] = row.Scores
	}
	for d := range cfg.Datasets {
		if res.Accuracies[0][d] > res.Accuracies[1][d] {
			res.SBDBeatsU++
		}
		if res.Accuracies[0][d] > res.Accuracies[2][d] {
			res.SBDBeatsB++
		}
	}
	return res
}

// optimalScalingMeasure wraps a measure with the per-pair least-squares
// scaling of Appendix A: dist(x, y) is computed as base(x, c·y) with
// c = x·yᵀ / y·yᵀ.
type optimalScalingMeasure struct {
	base dist.Measure
}

// Name implements dist.Measure.
func (m optimalScalingMeasure) Name() string { return m.base.Name() + "+OptScale" }

// Distance implements dist.Measure.
func (m optimalScalingMeasure) Distance(x, y []float64) float64 {
	c := ts.OptimalScale(x, y)
	return m.base.Distance(x, ts.Scale(y, c))
}
