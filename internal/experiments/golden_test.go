package experiments

import (
	"strings"
	"testing"
	"time"

	"kshape/internal/testkit"
)

// The golden tests pin the byte-exact output of every report renderer.
// Each subtest renders a small hand-constructed result struct and compares
// it against testdata/golden/<name>.golden; regenerate with
//
//	go test ./internal/experiments/ -run Golden -update
//
// A renderer change that alters a single byte of any table fails here, so
// formatting drift has to be an explicit, reviewed decision.

func render(t *testing.T, f func(w *strings.Builder) error) string {
	t.Helper()
	var b strings.Builder
	if err := f(&b); err != nil {
		t.Fatalf("renderer failed: %v", err)
	}
	return b.String()
}

func TestGoldenTable2(t *testing.T) {
	res := Table2Result{
		Comparison: Comparison{Rows: []Row{
			{Name: "ED", Equal: 6, AvgScore: 0.8125, RuntimeRatio: 1, Runtime: time.Second},
			{Name: "SBD", Greater: 4, Equal: 1, Less: 1, Better: true, AvgScore: 0.8671, RuntimeRatio: 4.3},
			{Name: "cDTW5", Greater: 3, Equal: 1, Less: 2, AvgScore: 0.8449, RuntimeRatio: 225.4},
		}},
		TunedWindows:       []int{3, 5, 0, 7, 2, 1},
		AvgTunedWindowFrac: 0.045,
	}
	got := render(t, func(w *strings.Builder) error { return WriteTable2(w, res) })
	testkit.Golden(t, "table2", got)
}

func TestGoldenClusterTable(t *testing.T) {
	baseline := Row{Name: "k-AVG+ED", AvgScore: 0.659}
	rows := []Row{
		{Name: "k-Shape", Greater: 5, Equal: 0, Less: 1, Better: true, AvgScore: 0.772, RuntimeRatio: 12.4},
		{Name: "k-AVG+SBD", Greater: 2, Equal: 2, Less: 2, Worse: true, AvgScore: 0.601, RuntimeRatio: 7.9},
	}
	t.Run("with-runtime", func(t *testing.T) {
		got := render(t, func(w *strings.Builder) error {
			return WriteClusterTable(w, "Table 3: scalable methods", baseline, rows, true)
		})
		testkit.Golden(t, "cluster-table-runtime", got)
	})
	t.Run("without-runtime", func(t *testing.T) {
		got := render(t, func(w *strings.Builder) error {
			return WriteClusterTable(w, "Table 4: non-scalable methods", baseline, rows, false)
		})
		testkit.Golden(t, "cluster-table-plain", got)
	})
}

func TestGoldenScatter(t *testing.T) {
	got := render(t, func(w *strings.Builder) error {
		return WriteScatter(w, "Figure 5: SBD vs ED accuracy", "SBD", "ED",
			[]string{"synth-a", "synth-b", "synth-c"},
			[]float64{0.91, 0.5, 0.755},
			[]float64{0.85, 0.5, 0.81})
	})
	testkit.Golden(t, "scatter", got)
}

func TestGoldenRanks(t *testing.T) {
	t.Run("grouped", func(t *testing.T) {
		res := RankResult{
			Names:     []string{"cDTWopt", "cDTW5", "SBD", "ED"},
			AvgRanks:  []float64{1.75, 2.5, 2.25, 3.5},
			Order:     []int{0, 2, 1, 3},
			CD:        1.914,
			Groups:    [][]int{{0, 2, 1}, {1, 3}},
			FriedmanP: 0.0123,
		}
		got := render(t, func(w *strings.Builder) error {
			return WriteRanks(w, "Figure 6: ranks over distance measures", res)
		})
		testkit.Golden(t, "ranks-grouped", got)
	})
	t.Run("all-separated", func(t *testing.T) {
		res := RankResult{
			Names:     []string{"A", "B"},
			AvgRanks:  []float64{1, 2},
			Order:     []int{0, 1},
			CD:        0.5,
			FriedmanP: 1e-6,
		}
		got := render(t, func(w *strings.Builder) error {
			return WriteRanks(w, "Figure 6b: fully separated ranks", res)
		})
		testkit.Golden(t, "ranks-separated", got)
	})
}

func TestGoldenAppendixA(t *testing.T) {
	res := AppendixAResult{
		Normalization: "z-score",
		Names:         []string{"NCCb", "NCCu", "SBD"},
		Accuracies: [][]float64{
			{0.55, 0.6, 0.5, 0.65},
			{0.7, 0.72, 0.68, 0.66},
			{0.8, 0.82, 0.78, 0.76},
		},
		SBDBeatsU: 4,
		SBDBeatsB: 4,
	}
	got := render(t, func(w *strings.Builder) error { return WriteAppendixA(w, res) })
	testkit.Golden(t, "appendix-a", got)
}

func TestGoldenFig2(t *testing.T) {
	res := Fig2Result{
		M:       8,
		Window:  2,
		Path:    [][2]int{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 4}, {6, 5}, {7, 6}, {7, 7}},
		CDTW:    1.234,
		EDValue: 2.345,
	}
	got := render(t, func(w *strings.Builder) error { return WriteFig2(w, res) })
	testkit.Golden(t, "fig2", got)
}

func TestGoldenFig3(t *testing.T) {
	res := Fig3Result{
		M:                1024,
		PeakShiftNCCbRaw: -511,
		PeakShiftNCCu:    0,
		PeakShiftNCCc:    0,
		PeakValueNCCc:    0.987,
	}
	got := render(t, func(w *strings.Builder) error { return WriteFig3(w, res) })
	testkit.Golden(t, "fig3", got)
}

func TestGoldenFig4(t *testing.T) {
	res := Fig4Result{
		Classes: []Fig4Class{
			{Label: 0, MeanSBD: 0.412, ShapeSBD: 0.118},
			{Label: 1, MeanSBD: 0.37, ShapeSBD: 0.095},
		},
	}
	got := render(t, func(w *strings.Builder) error { return WriteFig4(w, res) })
	testkit.Golden(t, "fig4", got)
}

func TestGoldenFig12(t *testing.T) {
	res := Fig12Result{
		VaryN: []Fig12Point{
			{N: 64, M: 128, KAvgEDSeconds: 0.021, KShapeSeconds: 0.094, KAvgEDIters: 11, KShapeIters: 6},
			{N: 128, M: 128, KAvgEDSeconds: 0.044, KShapeSeconds: 0.188, KAvgEDIters: 13, KShapeIters: 7},
		},
		VaryM: []Fig12Point{
			{N: 96, M: 64, KAvgEDSeconds: 0.017, KShapeSeconds: 0.061, KAvgEDIters: 10, KShapeIters: 6},
			{N: 96, M: 256, KAvgEDSeconds: 0.069, KShapeSeconds: 0.342, KAvgEDIters: 12, KShapeIters: 5},
		},
	}
	got := render(t, func(w *strings.Builder) error { return WriteFig12(w, res) })
	testkit.Golden(t, "fig12", got)
}

func TestGoldenKEstimation(t *testing.T) {
	res := KEstimationResult{
		Rows: []KEstimationRow{
			{Dataset: "synth-two-tone", TrueK: 3, SilhouetteK: 3, DBK: 4, CHK: 3},
			{Dataset: "synth-cbf", TrueK: 3, SilhouetteK: 2, DBK: 3, CHK: 5},
		},
		SilExact: 1, SilWithinOne: 2,
		DBExact: 1, DBWithinOne: 2,
		CHExact: 1, CHWithinOne: 1,
	}
	got := render(t, func(w *strings.Builder) error { return WriteKEstimation(w, res) })
	testkit.Golden(t, "kestimation", got)
}

func TestGoldenDatasetInventory(t *testing.T) {
	datasets := []DatasetInfo{
		{Name: "synth-two-tone", K: 3, M: 128, Train: 60, Test: 60},
		{Name: "synth-cbf", K: 3, M: 128, Train: 90, Test: 90},
	}
	got := render(t, func(w *strings.Builder) error { return WriteDatasetInventory(w, datasets) })
	testkit.Golden(t, "dataset-inventory", got)
}
