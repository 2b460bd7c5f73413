package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestCompareCounts(t *testing.T) {
	a := []float64{0.9, 0.5, 0.5004, 0.2}
	b := []float64{0.8, 0.5, 0.5001, 0.3}
	g, e, l := CompareCounts(a, b)
	// 0.5004 vs 0.5001 both round to 0.500 => equal.
	if g != 1 || e != 2 || l != 1 {
		t.Errorf("CompareCounts = %d,%d,%d; want 1,2,1", g, e, l)
	}
}

func TestReducedConfig(t *testing.T) {
	cfg := ReducedConfig(3)
	if len(cfg.Datasets) != 3 {
		t.Fatalf("datasets = %d", len(cfg.Datasets))
	}
	if cfg2 := ReducedConfig(1000); len(cfg2.Datasets) != 48 {
		t.Fatalf("oversized request should clamp to 48, got %d", len(cfg2.Datasets))
	}
}

func TestTable2Reduced(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	cfg := ReducedConfig(4)
	res := Table2(cfg)
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(res.Rows))
	}
	ed := res.RowByName("ED")
	if ed == nil || ed.RuntimeRatio != 1 {
		t.Fatalf("ED row: %+v", ed)
	}
	for _, r := range res.Rows {
		if len(r.Scores) != 4 {
			t.Errorf("%s: %d accuracies", r.Name, len(r.Scores))
		}
		for _, a := range r.Scores {
			if a < 0 || a > 1 {
				t.Errorf("%s: accuracy %v out of range", r.Name, a)
			}
		}
		if r.Greater+r.Equal+r.Less != 4 {
			t.Errorf("%s: counts don't sum to dataset count", r.Name)
		}
	}
	// The three SBD variants must agree exactly on accuracy.
	sbd := res.RowByName("SBD")
	for _, v := range []string{"SBDNoPow2", "SBDNoFFT"} {
		row := res.RowByName(v)
		for i := range sbd.Scores {
			if sbd.Scores[i] != row.Scores[i] {
				t.Errorf("%s accuracy diverges from SBD on dataset %d", v, i)
			}
		}
	}
	// LB-pruned rows must match their unpruned counterparts exactly.
	for _, pair := range [][2]string{{"cDTW5", "cDTW5LB"}, {"cDTW10", "cDTW10LB"}, {"cDTWopt", "cDTWoptLB"}, {"DTW", "DTWLB"}} {
		a, b := res.RowByName(pair[0]), res.RowByName(pair[1])
		for i := range a.Scores {
			if a.Scores[i] != b.Scores[i] {
				t.Errorf("%s and %s accuracies diverge on dataset %d: %v vs %v",
					pair[0], pair[1], i, a.Scores[i], b.Scores[i])
			}
		}
	}
	// Rendering must not panic and must include every row name.
	var buf bytes.Buffer
	WriteTable2(&buf, res)
	for _, r := range res.Rows {
		if !strings.Contains(buf.String(), r.Name) {
			t.Errorf("rendered table missing row %s", r.Name)
		}
	}

	// Figure 5 and 6 derive from the same result.
	f5 := Fig5(cfg, res)
	if len(f5.SBD) != 4 || len(f5.ED) != 4 || len(f5.DTW) != 4 {
		t.Error("Fig5 lengths wrong")
	}
	WriteScatter(&buf, "fig5a", "ED", "SBD", f5.Names, f5.ED, f5.SBD)

	f6 := Fig6(cfg, res)
	if len(f6.AvgRanks) != 4 {
		t.Error("Fig6 expects 4 measures")
	}
	WriteRanks(&buf, "fig6", f6)
}

func TestTable3And4Reduced(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	cfg := ReducedConfig(3)
	cfg.Runs = 2
	cfg.SpectralRuns = 2
	base := ClusterBaseline(cfg)
	t3 := Table3(cfg, base)
	if len(t3.Rows) != 7 {
		t.Fatalf("table3 rows = %d, want 7 (baseline + 6)", len(t3.Rows))
	}
	if t3.Rows[0].Name != "k-AVG+ED" {
		t.Fatalf("baseline = %s", t3.Rows[0].Name)
	}
	for _, r := range t3.Rows {
		for _, ri := range r.Scores {
			if ri < 0 || ri > 1 {
				t.Errorf("%s: Rand Index %v out of range", r.Name, ri)
			}
		}
	}
	if t3.RowByName("k-Shape") == nil || t3.RowByName("nope") != nil {
		t.Error("RowByName lookup broken")
	}

	t4 := Table4(cfg, base)
	if len(t4.Rows) != 16 {
		t.Fatalf("table4 rows = %d, want 16 (baseline + 15)", len(t4.Rows))
	}
	var buf bytes.Buffer
	WriteClusterTable(&buf, "Table 3", t3.Rows[0], t3.Rows[1:], true)
	WriteClusterTable(&buf, "Table 4", t4.Rows[0], t4.Rows[1:], false)
	for _, r := range t4.Rows {
		if !strings.Contains(buf.String(), r.Name) {
			t.Errorf("rendered table missing %s", r.Name)
		}
	}

	f7 := Fig7(cfg, t3)
	if len(f7.KShape) != 3 {
		t.Error("Fig7 lengths wrong")
	}
	f8 := Fig8(cfg, t3)
	if len(f8.AvgRanks) != 4 {
		t.Error("Fig8 expects 4 methods")
	}
	f9 := Fig9(cfg, t3, t4)
	if len(f9.AvgRanks) != 5 {
		t.Error("Fig9 expects 5 methods")
	}
	WriteScatter(&buf, "fig7a", "KSC", "k-Shape", f7.Names, f7.KSC, f7.KShape)
	WriteRanks(&buf, "fig8", f8)
	WriteRanks(&buf, "fig9", f9)
}

func TestFig2(t *testing.T) {
	cfg := ReducedConfig(1)
	r := Fig2(cfg)
	if len(r.Path) == 0 {
		t.Fatal("empty warping path")
	}
	if r.CDTW >= r.EDValue {
		t.Errorf("cDTW %v should beat ED %v on shifted sines", r.CDTW, r.EDValue)
	}
	for _, p := range r.Path {
		if abs(p[0]-p[1]) > r.Window {
			t.Errorf("path cell %v escapes the band", p)
		}
	}
	var buf bytes.Buffer
	WriteFig2(&buf, r)
	if !strings.Contains(buf.String(), "#") {
		t.Error("rendered band missing path cells")
	}
}

func TestFig3(t *testing.T) {
	r := Fig3(ReducedConfig(1))
	if r.PeakShiftNCCc != 0 {
		t.Errorf("NCCc peak shift = %d, want 0 (sequences are aligned)", r.PeakShiftNCCc)
	}
	if r.PeakValueNCCc <= 0.5 || r.PeakValueNCCc > 1+1e-9 {
		t.Errorf("NCCc peak value = %v", r.PeakValueNCCc)
	}
	if r.PeakShiftNCCbRaw == 0 {
		t.Error("un-normalized NCCb peak should be spurious (nonzero) by construction")
	}
	var buf bytes.Buffer
	WriteFig3(&buf, r)
	if !strings.Contains(buf.String(), "NCCc") {
		t.Error("render missing NCCc line")
	}
}

func TestFig4ShapeExtractionWins(t *testing.T) {
	r := Fig4(ReducedConfig(1))
	if len(r.Classes) != 2 {
		t.Fatalf("classes = %d", len(r.Classes))
	}
	for _, c := range r.Classes {
		if c.ShapeSBD >= c.MeanSBD {
			t.Errorf("class %d: shape extraction (%.3f) should represent the class better than the mean (%.3f)",
				c.Label, c.ShapeSBD, c.MeanSBD)
		}
		if len(c.Mean) != len(c.ShapeExtracted) {
			t.Errorf("class %d: centroid lengths differ", c.Label)
		}
	}
	var buf bytes.Buffer
	WriteFig4(&buf, r)
	if !strings.Contains(buf.String(), "class 0") {
		t.Error("render missing class lines")
	}
}

func TestFig12Small(t *testing.T) {
	if testing.Short() {
		t.Skip("scalability sweep is slow")
	}
	cfg := ReducedConfig(1)
	r := Fig12Sizes(cfg, []int{60, 120}, 64, []int{32, 64}, 60)
	if len(r.VaryN) != 2 || len(r.VaryM) != 2 {
		t.Fatalf("sweep sizes wrong: %+v", r)
	}
	for _, p := range append(r.VaryN, r.VaryM...) {
		if p.KAvgEDSeconds <= 0 || p.KShapeSeconds <= 0 {
			t.Errorf("point %+v has non-positive runtime", p)
		}
		if p.KAvgEDIters < 1 || p.KShapeIters < 1 {
			t.Errorf("point %+v has no iterations", p)
		}
	}
	var buf bytes.Buffer
	WriteFig12(&buf, r)
	if !strings.Contains(buf.String(), "Figure 12a") {
		t.Error("render missing sweep header")
	}
}

func TestAppendixAReduced(t *testing.T) {
	if testing.Short() {
		t.Skip("appendix sweep is slow")
	}
	cfg := ReducedConfig(3)
	for _, norm := range []Normalization{NormOptimalScaling, NormValues01, NormZScore} {
		r := AppendixA(cfg, norm)
		if len(r.Accuracies) != 3 {
			t.Fatalf("%v: variants = %d", norm, len(r.Accuracies))
		}
		for v := range r.Accuracies {
			for _, a := range r.Accuracies[v] {
				if a < 0 || a > 1 {
					t.Errorf("%v %s: accuracy %v", norm, r.Names[v], a)
				}
			}
		}
		var buf bytes.Buffer
		WriteAppendixA(&buf, r)
		if !strings.Contains(buf.String(), norm.String()) {
			t.Error("render missing normalization name")
		}
	}
}

func TestNormalizationString(t *testing.T) {
	if NormOptimalScaling.String() != "OptimalScaling" ||
		NormValues01.String() != "ValuesBetween0-1" ||
		NormZScore.String() != "z-normalization" ||
		Normalization(9).String() != "unknown" {
		t.Error("normalization names wrong")
	}
}

func TestAblationsReduced(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is slow")
	}
	cfg := ReducedConfig(2)
	cfg.Runs = 2
	res := Ablations(cfg)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	if res.Rows[0].Name != "k-Shape" {
		t.Fatalf("reference row = %s", res.Rows[0].Name)
	}
	for _, r := range res.Rows {
		if len(r.Scores) != 2 {
			t.Errorf("%s: %d scores", r.Name, len(r.Scores))
		}
		for _, ri := range r.Scores {
			if ri <= 0 || ri > 1 {
				t.Errorf("%s: Rand Index %v out of range", r.Name, ri)
			}
		}
	}
	var buf bytes.Buffer
	WriteClusterTable(&buf, "Ablations", res.Rows[0], res.Rows, true)
	if !strings.Contains(buf.String(), "k-Shape/no-align") {
		t.Error("render missing ablation row")
	}
}

func TestTable2ExtendedReduced(t *testing.T) {
	if testing.Short() {
		t.Skip("extended distance sweep is slow")
	}
	cfg := ReducedConfig(2)
	res := Table2Extended(cfg)
	if len(res.Rows) != 7 { // ED, SBD + 5 elastic measures
		t.Fatalf("rows = %d, want 7", len(res.Rows))
	}
	if res.Rows[0].Name != "ED" || res.Rows[0].RuntimeRatio != 1 {
		t.Fatalf("baseline row: %+v", res.Rows[0])
	}
	for _, r := range res.Rows {
		if r.Greater+r.Equal+r.Less != 2 {
			t.Errorf("%s: comparison counts wrong", r.Name)
		}
		for _, a := range r.Scores {
			if a < 0 || a > 1 {
				t.Errorf("%s: accuracy %v", r.Name, a)
			}
		}
	}
	var buf bytes.Buffer
	WriteTable2(&buf, res)
	if strings.Contains(buf.String(), "cDTWopt average") {
		t.Error("extended table should not print the tuned-window line")
	}
}

func TestKEstimationReduced(t *testing.T) {
	if testing.Short() {
		t.Skip("k-estimation sweep is slow")
	}
	cfg := ReducedConfig(2)
	cfg.Runs = 2
	res := KEstimation(cfg)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.TrueK < 2 {
			t.Errorf("%s: true k = %d", row.Dataset, row.TrueK)
		}
		for _, est := range []int{row.SilhouetteK, row.DBK, row.CHK} {
			if est < 2 || est > row.TrueK+3 {
				t.Errorf("%s: estimate %d outside sweep range", row.Dataset, est)
			}
		}
	}
	if res.SilWithinOne < res.SilExact || res.DBWithinOne < res.DBExact || res.CHWithinOne < res.CHExact {
		t.Error("within-1 counts cannot be below exact counts")
	}
	var buf bytes.Buffer
	WriteKEstimation(&buf, res)
	if !strings.Contains(buf.String(), "silhouette") {
		t.Error("render missing summary")
	}
}

func TestInventory(t *testing.T) {
	cfg := ReducedConfig(3)
	inv := Inventory(cfg)
	if len(inv) != 3 {
		t.Fatalf("inventory size = %d", len(inv))
	}
	for i, d := range inv {
		ds := cfg.Datasets[i]
		if d.Name != ds.Name || d.K != ds.K || d.M != ds.M ||
			d.Train != len(ds.Train) || d.Test != len(ds.Test) {
			t.Errorf("inventory row %d mismatch: %+v vs dataset %+v", i, d, ds.Name)
		}
	}
	var buf bytes.Buffer
	WriteDatasetInventory(&buf, inv)
	if !strings.Contains(buf.String(), "CBF") {
		t.Error("render missing dataset names")
	}
}
