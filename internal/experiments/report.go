package experiments

import (
	"fmt"
	"io"
	"strings"

	"kshape/internal/ts"
)

// The Write* renderers below build each table in memory and emit it with
// a single checked write: a report is either complete on the destination
// or the caller gets the error. (The errdrop analyzer bans silently
// discarded write errors — a truncated accuracy table must not look like
// a success.)

// flush copies one fully rendered table to w in a single write.
func flush(w io.Writer, b *strings.Builder) error {
	_, err := io.WriteString(w, b.String())
	return err
}

// yesNo renders the paper's check/cross columns.
func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// WriteTable2 renders Table 2 in the paper's layout.
func WriteTable2(w io.Writer, t Table2Result) error {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 2: comparison of distance measures against ED (1-NN accuracy)")
	fmt.Fprintf(&b, "%-10s %4s %4s %4s %-7s %-9s %-9s\n",
		"Measure", ">", "=", "<", "Better", "AvgAcc", "Runtime")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %4d %4d %4d %-7s %-9.3f %8.1fx\n",
			r.Name, r.Greater, r.Equal, r.Less, yesNo(r.Better), r.AvgScore, r.RuntimeRatio)
	}
	if t.TunedWindows != nil {
		fmt.Fprintf(&b, "cDTWopt average tuned window: %.1f%% of series length\n",
			100*t.AvgTunedWindowFrac)
	}
	return flush(w, &b)
}

// WriteClusterTable renders Table 3 or Table 4 in the paper's layout.
func WriteClusterTable(w io.Writer, title string, baseline Row, rows []Row, withRuntime bool) error {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	if withRuntime {
		fmt.Fprintf(&b, "%-17s %4s %4s %4s %-7s %-6s %-9s %-9s\n",
			"Algorithm", ">", "=", "<", "Better", "Worse", "RandIdx", "Runtime")
	} else {
		fmt.Fprintf(&b, "%-17s %4s %4s %4s %-7s %-6s %-9s\n",
			"Algorithm", ">", "=", "<", "Better", "Worse", "RandIdx")
	}
	for _, r := range rows {
		if withRuntime {
			fmt.Fprintf(&b, "%-17s %4d %4d %4d %-7s %-6s %-9.3f %8.1fx\n",
				r.Name, r.Greater, r.Equal, r.Less, yesNo(r.Better), yesNo(r.Worse), r.AvgScore, r.RuntimeRatio)
		} else {
			fmt.Fprintf(&b, "%-17s %4d %4d %4d %-7s %-6s %-9.3f\n",
				r.Name, r.Greater, r.Equal, r.Less, yesNo(r.Better), yesNo(r.Worse), r.AvgScore)
		}
	}
	fmt.Fprintf(&b, "(baseline %s: avg Rand Index %.3f)\n", baseline.Name, baseline.AvgScore)
	return flush(w, &b)
}

// WriteScatter renders per-dataset (x, y) pairs as CSV — the data behind
// the paper's scatter figures.
func WriteScatter(w io.Writer, title, xName, yName string, names []string, xs, ys []float64) error {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	fmt.Fprintf(&b, "dataset,%s,%s,winner\n", xName, yName)
	for i := range names {
		winner := yName
		switch {
		case xs[i] > ys[i]:
			winner = xName
		//lint:ignore floatcmp exact tie in the winner column mirrors the paper's ">/=/<" counting
		case xs[i] == ys[i]:
			winner = "tie"
		}
		fmt.Fprintf(&b, "%s,%.4f,%.4f,%s\n", names[i], xs[i], ys[i], winner)
	}
	return flush(w, &b)
}

// WriteRanks renders an average-rank analysis with its Nemenyi grouping —
// the textual form of the paper's critical-difference figures.
func WriteRanks(w io.Writer, title string, r RankResult) error {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	fmt.Fprintf(&b, "Friedman p = %.4g, Nemenyi CD (α=0.05) = %.3f\n", r.FriedmanP, r.CD)
	for _, idx := range r.Order {
		fmt.Fprintf(&b, "  %-12s avg rank %.3f\n", r.Names[idx], r.AvgRanks[idx])
	}
	for g, group := range r.Groups {
		names := make([]string, len(group))
		for i, idx := range group {
			names[i] = r.Names[idx]
		}
		fmt.Fprintf(&b, "  group %d (no significant difference): %s\n", g+1, strings.Join(names, ", "))
	}
	if len(r.Groups) == 0 {
		fmt.Fprintln(&b, "  all pairwise rank differences exceed the critical difference")
	}
	return flush(w, &b)
}

// WriteAppendixA renders a Figure 10/11 comparison.
func WriteAppendixA(w io.Writer, r AppendixAResult) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Appendix A: cross-correlation variants under %s\n", r.Normalization)
	fmt.Fprintf(&b, "%-6s %-9s\n", "Var", "AvgAcc")
	for v, name := range r.Names {
		fmt.Fprintf(&b, "%-6s %-9.3f\n", name, ts.Mean(r.Accuracies[v]))
	}
	n := len(r.Accuracies[0])
	fmt.Fprintf(&b, "SBD better than NCCu on %d/%d datasets, better than NCCb on %d/%d\n",
		r.SBDBeatsU, n, r.SBDBeatsB, n)
	return flush(w, &b)
}

// WriteFig2 renders the warping-path illustration as an ASCII band matrix.
func WriteFig2(w io.Writer, r Fig2Result) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: Sakoe-Chiba band (w=%d) and cDTW warping path, m=%d\n", r.Window, r.M)
	fmt.Fprintf(&b, "ED = %.3f, cDTW = %.3f\n", r.EDValue, r.CDTW)
	onPath := map[[2]int]bool{}
	for _, p := range r.Path {
		onPath[p] = true
	}
	for i := 0; i < r.M; i++ {
		for j := 0; j < r.M; j++ {
			switch {
			case onPath[[2]int{i, j}]:
				b.WriteByte('#')
			case abs(i-j) <= r.Window:
				b.WriteByte('.')
			default:
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	return flush(w, &b)
}

// WriteFig3 renders the normalization study.
func WriteFig3(w io.Writer, r Fig3Result) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: cross-correlation normalizations, m=%d (sequences aligned; correct peak shift = 0)\n", r.M)
	fmt.Fprintf(&b, "  NCCb without z-normalization: peak at shift %+d (spurious)\n", r.PeakShiftNCCbRaw)
	fmt.Fprintf(&b, "  NCCu with z-normalization:    peak at shift %+d\n", r.PeakShiftNCCu)
	fmt.Fprintf(&b, "  NCCc with z-normalization:    peak at shift %+d (value %.3f)\n", r.PeakShiftNCCc, r.PeakValueNCCc)
	return flush(w, &b)
}

// WriteFig4 renders the centroid comparison.
func WriteFig4(w io.Writer, r Fig4Result) error {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 4: class centroids on the ECG-like dataset (avg SBD to class members; lower is better)")
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "  class %d: arithmetic mean %.3f | shape extraction %.3f\n",
			c.Label, c.MeanSBD, c.ShapeSBD)
	}
	return flush(w, &b)
}

// WriteFig12 renders the scalability sweeps as CSV series.
func WriteFig12(w io.Writer, r Fig12Result) error {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 12a: runtime vs number of series (CBF, m fixed)")
	fmt.Fprintln(&b, "n,m,k-AVG+ED_sec,k-Shape_sec,k-AVG+ED_iters,k-Shape_iters")
	for _, p := range r.VaryN {
		fmt.Fprintf(&b, "%d,%d,%.3f,%.3f,%d,%d\n", p.N, p.M, p.KAvgEDSeconds, p.KShapeSeconds, p.KAvgEDIters, p.KShapeIters)
	}
	fmt.Fprintln(&b, "Figure 12b: runtime vs series length (CBF, n fixed)")
	fmt.Fprintln(&b, "n,m,k-AVG+ED_sec,k-Shape_sec,k-AVG+ED_iters,k-Shape_iters")
	for _, p := range r.VaryM {
		fmt.Fprintf(&b, "%d,%d,%.3f,%.3f,%d,%d\n", p.N, p.M, p.KAvgEDSeconds, p.KShapeSeconds, p.KAvgEDIters, p.KShapeIters)
	}
	return flush(w, &b)
}

// WriteKEstimation renders the k-estimation study.
func WriteKEstimation(w io.Writer, r KEstimationResult) error {
	var b strings.Builder
	fmt.Fprintln(&b, "k estimation by intrinsic criteria (paper footnote 2)")
	fmt.Fprintf(&b, "%-18s %-6s %-6s %-6s %-6s\n", "dataset", "true", "sil", "DB", "CH")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %-6d %-6d %-6d %-6d\n",
			row.Dataset, row.TrueK, row.SilhouetteK, row.DBK, row.CHK)
	}
	n := len(r.Rows)
	fmt.Fprintf(&b, "exact / within-1 of true k over %d datasets: silhouette %d/%d, Davies-Bouldin %d/%d, Calinski-Harabasz %d/%d\n",
		n, r.SilExact, r.SilWithinOne, r.DBExact, r.DBWithinOne, r.CHExact, r.CHWithinOne)
	return flush(w, &b)
}

// WriteDatasetInventory renders the archive catalog (name, classes, sizes),
// the analogue of the paper's dataset table.
func WriteDatasetInventory(w io.Writer, datasets []DatasetInfo) error {
	var b strings.Builder
	fmt.Fprintln(&b, "Synthetic archive inventory (UCR stand-in; see DESIGN.md §2)")
	fmt.Fprintf(&b, "%-18s %-4s %-6s %-7s %-6s\n", "dataset", "k", "length", "train", "test")
	for _, d := range datasets {
		fmt.Fprintf(&b, "%-18s %-4d %-6d %-7d %-6d\n", d.Name, d.K, d.M, d.Train, d.Test)
	}
	return flush(w, &b)
}

// DatasetInfo is the inventory row for WriteDatasetInventory.
type DatasetInfo struct {
	Name              string
	K, M, Train, Test int
}

// Inventory summarizes the configured datasets for WriteDatasetInventory.
func Inventory(cfg Config) []DatasetInfo {
	out := make([]DatasetInfo, len(cfg.Datasets))
	for i, ds := range cfg.Datasets {
		out[i] = DatasetInfo{Name: ds.Name, K: ds.K, M: ds.M, Train: len(ds.Train), Test: len(ds.Test)}
	}
	return out
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
