// Command kbench regenerates the tables and figures of the k-Shape paper's
// evaluation on the synthetic archive.
//
// Usage:
//
//	kbench [-datasets N] [-runs R] [-spectral-runs S] [-seed X] [-v]
//	       [-workers W] [-report run.json] [-cpuprofile cpu.out]
//	       [-memprofile mem.out] [-listen :9090] [-log-level info]
//	       [-log-json] [-version] <experiment>...
//
// Experiments: table2, table3, table4, fig2, fig3, fig4, fig5, fig6, fig7,
// fig8, fig9, fig10, fig11, fig12, ablations, table2x, kestimation,
// datasets, all.
//
// Table 2 and table-3/4 experiments print rows in the paper's layout;
// figure experiments print the series/CSV data behind each plot. See
// EXPERIMENTS.md for the paper-vs-measured comparison.
//
// -workers W bounds how many units of work a sweep runs at once. Each
// unit (one run of a method on one dataset, with any matrix it builds)
// runs on one thread, so -workers 1 runs every sweep serially. Scores are identical for any W; a row's runtime is the sum of
// its units' wall times.
//
// -report writes the kshape.runreport/v1 flight-recorder report of the
// run: kernel counters (FFT transforms, SBD/ED/DTW evaluations, eigensolver
// iterations), phase latency histograms, per-worker attribution, and, in
// "runs", one record per (method, dataset, restart) unit of work of every
// scored sweep (table2, table2x, table3, table4, ablations, fig10, fig11),
// including per-iteration inertia/churn trajectories for the iterative
// clustering methods. A record carries its own kernel-counter delta only with
// -workers 1, where units run one at a time. Each experiment's wall time
// is logged at info level. -cpuprofile/-memprofile capture runtime/pprof
// profiles of the same run.
//
// -listen ADDR serves live telemetry while the experiments execute:
// /metrics (Prometheus text format, including live-progress gauges),
// /progress (Server-Sent-Events per-iteration snapshots), /healthz, and
// /debug/pprof — useful for watching kernel-counter
// rates and phase latency histograms during a long sweep. -progress
// renders a live convergence line on stderr; -dashboard FILE writes a
// self-contained HTML run dashboard after the sweep. Progress output is
// structured (-v enables it; -log-json switches to JSON lines).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"

	"kshape/internal/cli"
	"kshape/internal/experiments"
	"kshape/internal/obs"
	"kshape/internal/plot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "kbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("kbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nDatasets := fs.Int("datasets", 48, "number of archive datasets to use (1-48)")
	runs := fs.Int("runs", 5, "random restarts for partitional methods (paper: 10)")
	spectralRuns := fs.Int("spectral-runs", 10, "random restarts for spectral methods (paper: 100)")
	seed := fs.Int64("seed", 1, "base random seed")
	verbose := fs.Bool("v", false, "log one structured progress record per completed unit of work to stderr")
	svgDir := fs.String("svgdir", "", "also write the scatter/rank/runtime figures as SVG files into this directory")
	cpuProfile := fs.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a runtime/pprof heap profile to this file at exit")
	workers := fs.Int("workers", runtime.NumCPU(), "max units of work a sweep runs at once; each unit runs on one thread, so 1 = fully serial (results are identical for any value; -report's per-run records carry counter deltas only at 1)")
	var common cli.Common
	common.Register(fs)
	common.RegisterListen(fs)
	common.RegisterReport(fs)
	common.RegisterProgress(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if common.HandleVersion(stderr, "kbench") {
		return nil
	}
	logger, err := common.Logger("kbench", stderr)
	if err != nil {
		return err
	}

	cfg := experiments.ReducedConfig(*nDatasets)
	cfg.Runs = *runs
	cfg.SpectralRuns = *spectralRuns
	cfg.Seed = *seed
	cfg.Workers = *workers
	if *verbose {
		cfg.Logger = logger
	}

	// timed logs one experiment's wall time under the run_id the run
	// report carries.
	timed := func(name string, sw obs.Stopwatch) {
		logger.Info("experiment done", "experiment", name, "seconds", sw.Seconds())
	}
	writeSVG := func(name string, data []byte) {
		if *svgDir == "" {
			return
		}
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			logger.Warn("svgdir", "error", err)
			return
		}
		path := filepath.Join(*svgDir, name)
		if err := os.WriteFile(path, data, 0o666); err != nil {
			logger.Warn("svg write failed", "error", err)
			return
		}
		logger.Info("wrote figure", "path", path)
	}
	// runtimeLines renders one Fig. 12 sweep as an SVG line chart.
	runtimeLines := func(file, title, xName string, pts []experiments.Fig12Point, x func(experiments.Fig12Point) int) {
		if len(pts) == 0 {
			return
		}
		xs, kshapeS, kavgS := make([]float64, len(pts)), make([]float64, len(pts)), make([]float64, len(pts))
		for i, p := range pts {
			xs[i], kshapeS[i], kavgS[i] = float64(x(p)), p.KShapeSeconds, p.KAvgEDSeconds
		}
		writeSVG(file, plot.Lines(title, xName, "seconds", xs, map[string][]float64{"k-Shape": kshapeS, "k-AVG+ED": kavgS}))
	}
	// Experiments share intermediate results: Table 2 feeds figs 5-6,
	// Tables 3-4 feed figs 7-9, and Tables 3 and 4 share one k-AVG+ED
	// baseline sweep. Each is computed once, by the first step that needs
	// it, and counts toward that step's time.
	base := sync.OnceValue(func() experiments.Row { return experiments.ClusterBaseline(cfg) })
	t2 := sync.OnceValue(func() experiments.Table2Result { return experiments.Table2(cfg) })
	t3 := sync.OnceValue(func() experiments.Comparison { return experiments.Table3(cfg, base()) })
	t4 := sync.OnceValue(func() experiments.Comparison { return experiments.Table4(cfg, base()) })

	// steps lists every experiment in the paper's order; "all" runs the
	// tables and figures, not the auxiliary kestimation/datasets reports.
	// Each wanted step prints its section, in this order.
	steps := []struct {
		name, title string
		inAll       bool
		run         func() error
	}{
		{"table2", "Table 2", true, func() error { return experiments.WriteTable2(stdout, t2()) }},
		{"table3", "Table 3", true, func() error {
			return experiments.WriteClusterTable(stdout, "Table 3: k-means variants vs k-AVG+ED (Rand Index)", t3().Rows[0], t3().Rows[1:], true)
		}},
		{"table4", "Table 4", true, func() error {
			return experiments.WriteClusterTable(stdout, "Table 4: non-scalable methods vs k-AVG+ED (Rand Index)", t4().Rows[0], t4().Rows[1:], false)
		}},
		{"fig2", "Figure 2", true, func() error { return experiments.WriteFig2(stdout, experiments.Fig2(cfg)) }},
		{"fig3", "Figure 3", true, func() error { return experiments.WriteFig3(stdout, experiments.Fig3(cfg)) }},
		{"fig4", "Figure 4", true, func() error { return experiments.WriteFig4(stdout, experiments.Fig4(cfg)) }},
		{"fig5", "Figure 5", true, func() error {
			f5 := experiments.Fig5(cfg, t2())
			if err := experiments.WriteScatter(stdout, "Figure 5a: SBD vs ED (1-NN accuracy)", "ED", "SBD", f5.Names, f5.ED, f5.SBD); err != nil {
				return err
			}
			if err := experiments.WriteScatter(stdout, "Figure 5b: SBD vs DTW (1-NN accuracy)", "DTW", "SBD", f5.Names, f5.DTW, f5.SBD); err != nil {
				return err
			}
			writeSVG("fig5a.svg", plot.Scatter("SBD vs ED (1-NN accuracy)", "ED", "SBD", f5.ED, f5.SBD, 0.3, 1.0))
			writeSVG("fig5b.svg", plot.Scatter("SBD vs DTW (1-NN accuracy)", "DTW", "SBD", f5.DTW, f5.SBD, 0.3, 1.0))
			return nil
		}},
		{"fig6", "Figure 6", true, func() error {
			f6 := experiments.Fig6(cfg, t2())
			if err := experiments.WriteRanks(stdout, "Figure 6: distance-measure average ranks (Friedman + Nemenyi)", f6); err != nil {
				return err
			}
			writeSVG("fig6.svg", plot.CDRanks("Distance-measure ranks", f6.Names, f6.AvgRanks, f6.CD, f6.Groups))
			return nil
		}},
		{"fig7", "Figure 7", true, func() error {
			f7 := experiments.Fig7(cfg, t3())
			if err := experiments.WriteScatter(stdout, "Figure 7a: k-Shape vs KSC (Rand Index)", "KSC", "k-Shape", f7.Names, f7.KSC, f7.KShape); err != nil {
				return err
			}
			if err := experiments.WriteScatter(stdout, "Figure 7b: k-Shape vs k-DBA (Rand Index)", "k-DBA", "k-Shape", f7.Names, f7.KDBA, f7.KShape); err != nil {
				return err
			}
			writeSVG("fig7a.svg", plot.Scatter("k-Shape vs KSC (Rand Index)", "KSC", "k-Shape", f7.KSC, f7.KShape, 0.3, 1.0))
			writeSVG("fig7b.svg", plot.Scatter("k-Shape vs k-DBA (Rand Index)", "k-DBA", "k-Shape", f7.KDBA, f7.KShape, 0.3, 1.0))
			return nil
		}},
		{"fig8", "Figure 8", true, func() error {
			f8 := experiments.Fig8(cfg, t3())
			if err := experiments.WriteRanks(stdout, "Figure 8: k-means-variant average ranks (Friedman + Nemenyi)", f8); err != nil {
				return err
			}
			writeSVG("fig8.svg", plot.CDRanks("k-means-variant ranks", f8.Names, f8.AvgRanks, f8.CD, f8.Groups))
			return nil
		}},
		{"fig9", "Figure 9", true, func() error {
			f9 := experiments.Fig9(cfg, t3(), t4())
			if err := experiments.WriteRanks(stdout, "Figure 9: methods beating k-AVG+ED, average ranks (Friedman + Nemenyi)", f9); err != nil {
				return err
			}
			writeSVG("fig9.svg", plot.CDRanks("Methods beating k-AVG+ED", f9.Names, f9.AvgRanks, f9.CD, f9.Groups))
			return nil
		}},
		{"fig10", "Figure 10", true, func() error {
			return experiments.WriteAppendixA(stdout, experiments.AppendixA(cfg, experiments.NormOptimalScaling))
		}},
		{"fig11", "Figure 11", true, func() error {
			if err := experiments.WriteAppendixA(stdout, experiments.AppendixA(cfg, experiments.NormValues01)); err != nil {
				return err
			}
			return experiments.WriteAppendixA(stdout, experiments.AppendixA(cfg, experiments.NormZScore))
		}},
		{"fig12", "Figure 12", true, func() error {
			f12 := experiments.Fig12(cfg)
			if err := experiments.WriteFig12(stdout, f12); err != nil {
				return err
			}
			runtimeLines("fig12a.svg", "Runtime vs number of series (CBF)", "n", f12.VaryN, func(p experiments.Fig12Point) int { return p.N })
			runtimeLines("fig12b.svg", "Runtime vs series length (CBF)", "m", f12.VaryM, func(p experiments.Fig12Point) int { return p.M })
			return nil
		}},
		{"ablations", "Ablations", true, func() error {
			ab := experiments.Ablations(cfg)
			return experiments.WriteClusterTable(stdout,
				"Design-choice ablations vs full k-Shape (Rand Index)", ab.Rows[0], ab.Rows, true)
		}},
		{"table2x", "Table 2 extended", true, func() error {
			return experiments.WriteTable2(stdout, experiments.Table2Extended(cfg))
		}},
		{"kestimation", "k estimation", false, func() error {
			return experiments.WriteKEstimation(stdout, experiments.KEstimation(cfg))
		}},
		{"datasets", "Datasets", false, func() error {
			return experiments.WriteDatasetInventory(stdout, experiments.Inventory(cfg))
		}},
	}
	names := make([]string, len(steps))
	for i, st := range steps {
		names[i] = st.name
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no experiment named; choose from: %s, all", strings.Join(names, " "))
	}
	want := map[string]bool{}
	for _, a := range fs.Args() {
		if a != "all" && !slices.Contains(names, a) {
			return fmt.Errorf("unknown experiment %q; valid experiments: %s, all", a, strings.Join(names, " "))
		}
		for _, st := range steps {
			if a == st.name || a == "all" && st.inAll {
				want[st.name] = true
			}
		}
	}

	session, err := common.Start("kbench", args, stderr, logger)
	if err != nil {
		return err
	}
	defer session.Close()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	sw := obs.NewStopwatch()
	for _, st := range steps {
		if !want[st.name] {
			continue
		}
		cli.Emit(stdout, "\n==== %s ====\n", st.title)
		ssw := obs.NewStopwatch()
		// A step's error is the write error of the report it renders.
		if err := st.run(); err != nil {
			return err
		}
		timed(st.name, ssw)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			_ = f.Close() // surfacing the write error matters more
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	if err := session.Finish(); err != nil {
		return err
	}
	logger.Info("kbench finished", "seconds", sw.Seconds())
	return nil
}
