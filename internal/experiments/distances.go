package experiments

import (
	"time"

	"kshape/internal/dist"
	"kshape/internal/eval"
	"kshape/internal/obs"
	"kshape/internal/stats"
	"kshape/internal/ts"
)

// DistanceRow is one row of Table 2.
type DistanceRow struct {
	Name string
	// Accuracies holds per-dataset 1-NN test accuracy, aligned with
	// Config.Datasets.
	Accuracies []float64
	// Greater/Equal/Less count datasets vs the ED baseline.
	Greater, Equal, Less int
	// Better is true when the row beats ED with Wilcoxon significance at
	// the paper's 99% confidence.
	Better bool
	// AvgAccuracy is the mean accuracy across datasets.
	AvgAccuracy float64
	// RuntimeRatio is total classification time divided by ED's.
	RuntimeRatio float64
	// Runtime is the raw wall time spent classifying.
	Runtime time.Duration
}

// Table2Result aggregates the distance-measure comparison.
type Table2Result struct {
	Rows []DistanceRow
	// TunedWindows holds the cDTWopt window chosen per dataset (in cells).
	TunedWindows []int
	// AvgTunedWindowFrac is the mean tuned window as a fraction of the
	// series length (the paper reports 4.5% across the UCR archive).
	AvgTunedWindowFrac float64
}

// distanceEvaluator classifies one dataset's test split and reports accuracy.
type distanceEvaluator struct {
	name string
	// evaluate returns the 1-NN accuracy for dataset index i.
	evaluate func(i int) float64
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
	fracSum := 0.0
	for i, ds := range datasets {
		w, _ := eval.TuneCDTWWindow(ds.Train, cfg.MaxWindowFrac)
		windows[i] = w
		fracSum += float64(w) / float64(ds.M)
		cfg.progress("table2 cDTWopt window tuned", "dataset", ds.Name, "window_cells", w)
	}

	cdtwWindow := func(frac float64, i int) int {
		w := int(frac*float64(datasets[i].M) + 0.5)
		if w < 1 {
			w = 1
		}
		return w
	}
	plain := func(m dist.Measure) func(int) float64 {
		return func(i int) float64 {
			return eval.OneNNAccuracy(m, datasets[i].Train, datasets[i].Test)
		}
	}
	cdtwPlain := func(window func(int) int) func(int) float64 {
		return func(i int) float64 {
			return eval.OneNNAccuracy(dist.CDTWMeasure{Window: window(i)}, datasets[i].Train, datasets[i].Test)
		}
	}
	cdtwLB := func(window func(int) int) func(int) float64 {
		return func(i int) float64 {
			return eval.OneNNAccuracyLB(window(i), datasets[i].Train, datasets[i].Test)
		}
	}
	optW := func(i int) int { return windows[i] }
	w5 := func(i int) int { return cdtwWindow(0.05, i) }
	w10 := func(i int) int { return cdtwWindow(0.10, i) }
	unconstrained := func(i int) int { return datasets[i].M }

	evaluators := []distanceEvaluator{
		{"ED", plain(dist.EDMeasure{})},
		{"DTW", plain(dist.DTWMeasure{})},
		{"DTWLB", cdtwLB(unconstrained)},
		{"cDTWopt", cdtwPlain(optW)},
		{"cDTWoptLB", cdtwLB(optW)},
		{"cDTW5", cdtwPlain(w5)},
		{"cDTW5LB", cdtwLB(w5)},
		{"cDTW10", cdtwPlain(w10)},
		{"cDTW10LB", cdtwLB(w10)},
		{"SBD", plain(dist.SBDMeasure{})},
		{"SBDNoPow2", plain(dist.SBDNoPow2Measure{})},
		{"SBDNoFFT", plain(dist.SBDNoFFTMeasure{})},
	}

	rows := make([]DistanceRow, len(evaluators))
	meter := cfg.runMeter()
	for r, ev := range evaluators {
		accs := make([]float64, n)
		sw := obs.NewStopwatch()
		for i := range datasets {
			done := meter.start()
			accs[i] = ev.evaluate(i)
			done(obs.RunRecord{
				Method:    ev.name,
				Dataset:   datasets[i].Name,
				Score:     accs[i],
				ScoreKind: obs.ScoreAccuracy1NN,
			})
		}
		rows[r] = DistanceRow{
			Name:       ev.name,
			Accuracies: accs,
			Runtime:    sw.Elapsed(),
		}
		cfg.progress("table2 measure done", "measure", ev.name, "seconds", rows[r].Runtime.Seconds(), "avg_accuracy", Mean(accs))
	}

	edRow := rows[0]
	for r := range rows {
		rows[r].AvgAccuracy = Mean(rows[r].Accuracies)
		rows[r].Greater, rows[r].Equal, rows[r].Less = CompareCounts(rows[r].Accuracies, edRow.Accuracies)
		rows[r].Better = stats.SignificantlyBetter(rows[r].Accuracies, edRow.Accuracies, 0.99)
		if edRow.Runtime > 0 {
			rows[r].RuntimeRatio = float64(rows[r].Runtime) / float64(edRow.Runtime)
		}
	}
	return Table2Result{
		Rows:               rows,
		TunedWindows:       windows,
		AvgTunedWindowFrac: fracSum / float64(n),
	}
}

// RowByName returns the named row, or nil.
func (t Table2Result) RowByName(name string) *DistanceRow {
	for i := range t.Rows {
		if t.Rows[i].Name == name {
			return &t.Rows[i]
		}
	}
	return nil
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
		SBD:   t2.RowByName("SBD").Accuracies,
		ED:    t2.RowByName("ED").Accuracies,
		DTW:   t2.RowByName("DTW").Accuracies,
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
		return t2.RowByName(name).Accuracies
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
	for v := range variants {
		res.Accuracies[v] = make([]float64, len(cfg.Datasets))
	}
	for d, ds := range cfg.Datasets {
		rng := cfg.rng(int64(d))
		prep := func(in []ts.Series) []ts.Series {
			out := make([]ts.Series, len(in))
			for i, s := range in {
				amp := 0.5 + 4*rng.Float64() // random amplitude, per Appendix A
				raw := ts.Scale(s.Values, amp)
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
		train := prep(ds.Train)
		test := prep(ds.Test)
		for v, meas := range variants {
			m := meas
			if norm == NormOptimalScaling {
				m = optimalScalingMeasure{base: meas}
			}
			res.Accuracies[v][d] = eval.OneNNAccuracy(m, train, test)
		}
		cfg.progress("appendixA dataset done", "normalization", norm, "dataset", ds.Name)
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
