package experiments

import (
	"kshape/internal/obs"
	"math"

	"kshape/internal/avg"
	"kshape/internal/core"
	"kshape/internal/dataset"
	"kshape/internal/dist"
	"kshape/internal/ts"
)

// Fig2Result describes the expository alignment figure: the Sakoe-Chiba
// band and the cDTW warping path for a pair of sequences.
type Fig2Result struct {
	M       int
	Window  int
	Path    [][2]int
	CDTW    float64
	EDValue float64
}

// Fig2 reproduces the Figure 2 illustration on two out-of-phase sequences.
func Fig2(cfg Config) Fig2Result {
	m := 32
	rng := cfg.rng(2)
	x := make([]float64, m)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / float64(m))
	}
	y := ts.Shift(x, 3)
	for i := range y {
		y[i] += 0.05 * rng.NormFloat64()
	}
	window := 5
	path, d := dist.WarpingPath(x, y, window)
	return Fig2Result{M: m, Window: window, Path: path, CDTW: d, EDValue: dist.ED(x, y)}
}

// Fig3Result reports where each cross-correlation normalization peaks for
// a pair of aligned sequences of length 1024 (the paper's Figure 3): with
// proper normalization (z-norm + NCCc), the peak sits at zero shift.
type Fig3Result struct {
	M int
	// PeakShiftNCCbRaw is the peak shift of NCCb without z-normalization.
	PeakShiftNCCbRaw int
	// PeakShiftNCCu / PeakShiftNCCc are the peak shifts with z-normalized
	// inputs.
	PeakShiftNCCu int
	PeakShiftNCCc int
	// PeakValueNCCc is the NCCc maximum (bounded by 1).
	PeakValueNCCc float64
}

// Fig3 reproduces the normalization study on two aligned noisy sine
// sequences with very different amplitudes and offsets.
func Fig3(cfg Config) Fig3Result {
	m := 1024
	rng := cfg.rng(3)
	x := make([]float64, m)
	y := make([]float64, m)
	for i := range x {
		base := math.Sin(8*math.Pi*float64(i)/float64(m))*math.Exp(-3*math.Abs(float64(i)-float64(m)/2)/float64(m)) +
			0.02*rng.NormFloat64()
		x[i] = base
		// Same shape, aligned, but wildly different amplitude and offset —
		// the regime where the biased estimator without z-normalization
		// finds a spurious peak.
		y[i] = 40*base + 300
	}
	_, shiftRawB := dist.MaxNCC(x, y, dist.NCCb)
	zx, zy := ts.ZNormalize(x), ts.ZNormalize(y)
	_, shiftU := dist.MaxNCC(zx, zy, dist.NCCu)
	vC, shiftC := dist.MaxNCC(zx, zy, dist.NCCc)
	return Fig3Result{
		M:                m,
		PeakShiftNCCbRaw: shiftRawB,
		PeakShiftNCCu:    shiftU,
		PeakShiftNCCc:    shiftC,
		PeakValueNCCc:    vC,
	}
}

// Fig4Result compares the arithmetic-mean centroid against the
// shape-extraction centroid on each class of the ECG-like dataset.
type Fig4Result struct {
	// Classes holds, per class, the two candidate centroids and their SBD
	// to the class's true prototype shape.
	Classes []Fig4Class
}

// Fig4Class is the per-class payload of Figure 4.
type Fig4Class struct {
	Label          int
	Mean           []float64
	ShapeExtracted []float64
	// MeanSBD / ShapeSBD measure each centroid's average SBD to the class
	// members; smaller means the centroid represents the class better.
	MeanSBD  float64
	ShapeSBD float64
}

// Fig4 reproduces the centroid comparison of Figure 4 on the ECG-like
// two-class dataset: shape extraction should represent each class strictly
// better than the arithmetic mean under SBD.
func Fig4(cfg Config) Fig4Result {
	ds := ECGDataset()
	byClass := map[int][][]float64{}
	for _, s := range ds.All() {
		byClass[s.Label] = append(byClass[s.Label], s.Values)
	}
	var out Fig4Result
	for label := 0; label < ds.K; label++ {
		members := byClass[label]
		mean := ts.ZNormalize(avg.Mean(members, nil))
		// Align members to their first element as the reference, as
		// Algorithm 2 does with a randomly selected reference.
		shape := avg.ShapeExtraction(members, members[0])
		avgSBD := func(c []float64) float64 {
			sum := 0.0
			for _, x := range members {
				d, _ := dist.SBD(c, x)
				sum += d
			}
			return sum / float64(len(members))
		}
		out.Classes = append(out.Classes, Fig4Class{
			Label:          label,
			Mean:           mean,
			ShapeExtracted: shape,
			MeanSBD:        avgSBD(mean),
			ShapeSBD:       avgSBD(shape),
		})
	}
	return out
}

// Fig12Point is one measurement of the Appendix B scalability study.
type Fig12Point struct {
	N, M          int
	KAvgEDSeconds float64
	KShapeSeconds float64
	// KAvgEDIters / KShapeIters report the iterations to convergence; the
	// paper notes k-Shape needs ~45% fewer iterations than k-AVG+ED.
	KAvgEDIters, KShapeIters int
}

// Fig12Result holds both sweeps of Figure 12.
type Fig12Result struct {
	// VaryN sweeps the number of series at fixed length M=128.
	VaryN []Fig12Point
	// VaryM sweeps the series length at a fixed number of series.
	VaryM []Fig12Point
}

// Fig12 reproduces the CBF scalability study. Sizes are scaled down from
// the paper's 100k×128 to keep a laptop run in seconds; pass larger
// NSweep/MSweep values via Fig12Sizes for the full curve.
func Fig12(cfg Config) Fig12Result {
	return Fig12Sizes(cfg, []int{300, 600, 1200, 2400}, 128, []int{64, 128, 256, 512}, 300)
}

// Fig12Sizes runs the scalability sweeps with explicit sizes. The timed
// runs execute one at a time, each on up to Config.Workers workers.
func Fig12Sizes(cfg Config, nSweep []int, fixedM int, mSweep []int, fixedN int) Fig12Result {
	var res Fig12Result
	for _, n := range nSweep {
		res.VaryN = append(res.VaryN, fig12Point(cfg, n, fixedM))
		cfg.progress("fig12 point done", "n", n, "m", fixedM)
	}
	for _, m := range mSweep {
		res.VaryM = append(res.VaryM, fig12Point(cfg, fixedN, m))
		cfg.progress("fig12 point done", "n", fixedN, "m", m)
	}
	return res
}

func fig12Point(cfg Config, n, m int) Fig12Point {
	data := ts.Rows(dataset.CBF(n, m, cfg.Seed))
	k := 3
	pt := Fig12Point{N: n, M: m}

	sw := obs.NewStopwatch()
	resED, err := core.Lloyd(data, core.Config{K: k, Rand: cfg.rng(int64(n)*7 + int64(m)), Workers: cfg.Workers},
		func(c, x []float64) float64 { return dist.ED(c, x) }, avg.Mean)
	if err == nil {
		pt.KAvgEDSeconds = sw.Seconds()
		pt.KAvgEDIters = resED.Iterations
	}

	sw = obs.NewStopwatch()
	resKS, err := core.KShapeRun(data, core.Config{K: k, Rand: cfg.rng(int64(n)*13 + int64(m)), Workers: cfg.Workers})
	if err == nil {
		pt.KShapeSeconds = sw.Seconds()
		pt.KShapeIters = resKS.Iterations
	}
	return pt
}
