// Command kbench regenerates the tables and figures of the k-Shape paper's
// evaluation on the synthetic archive.
//
// Usage:
//
//	kbench [-datasets N] [-runs R] [-spectral-runs S] [-seed X] [-v]
//	       [-metrics out.json] [-cpuprofile cpu.out] [-memprofile mem.out]
//	       [-listen :9090] [-log-level info] [-log-json] [-version]
//	       <experiment>...
//
// Experiments: table2, table3, table4, fig2, fig3, fig4, fig5, fig6, fig7,
// fig8, fig9, fig10, fig11, fig12, ablations, table2x, kestimation,
// datasets, all.
//
// Table 2 and table-3/4 experiments print rows in the paper's layout;
// figure experiments print the series/CSV data behind each plot. See
// EXPERIMENTS.md for the paper-vs-measured comparison.
//
// -metrics writes a structured JSON report of the run: kernel counters (FFT
// transforms, SBD/ED/DTW evaluations, eigensolver iterations), hierarchical
// phase timings, and one record per (method, dataset) unit of work,
// including per-iteration inertia/churn trajectories for the iterative
// clustering methods. -cpuprofile/-memprofile capture runtime/pprof
// profiles of the same run.
//
// -listen ADDR serves live telemetry while the experiments execute:
// /metrics (Prometheus text format, including live-progress gauges),
// /progress (Server-Sent-Events per-iteration snapshots), /healthz,
// /debug/vars, and /debug/pprof — useful for watching kernel-counter
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
	"sort"
	"strings"

	"kshape/internal/cli"
	"kshape/internal/experiments"
	"kshape/internal/obs"
	"kshape/internal/plot"
)

// experimentNames lists every runnable experiment, in the order of the
// paper's presentation. "all" expands to the tables and figures (not the
// auxiliary kestimation/datasets reports), as before.
var experimentNames = []string{
	"table2", "table3", "table4",
	"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12",
	"ablations", "table2x", "kestimation", "datasets",
}

var allExperiments = []string{
	"table2", "table3", "table4", "fig2", "fig3", "fig4",
	"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	"ablations", "table2x",
}

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
	metricsPath := fs.String("metrics", "", "write a JSON metrics report (kernel counters, phase timings, per-run records) to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a runtime/pprof heap profile to this file at exit")
	workers := fs.Int("workers", runtime.NumCPU(), "max concurrent dataset workers per sweep (1 = serial; results are identical for any value; ignored with -metrics, which runs serially so counter deltas stay attributable to one run)")
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
	if fs.NArg() == 0 {
		return fmt.Errorf("no experiment named; choose from: %s, all", strings.Join(experimentNames, " "))
	}
	// -metrics forces serial sweeps for counter attribution; warn when the
	// user explicitly asked for parallelism that will be ignored.
	workersSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			workersSet = true
		}
	})
	if *metricsPath != "" && workersSet && *workers > 1 {
		logger.Warn("-metrics runs dataset sweeps serially so per-run counter deltas stay attributable; explicit -workers is ignored",
			"workers", *workers)
	}

	cfg := experiments.ReducedConfig(*nDatasets)
	cfg.Runs = *runs
	cfg.SpectralRuns = *spectralRuns
	cfg.Seed = *seed
	cfg.Workers = *workers
	if *verbose {
		cfg.Logger = logger
	}

	session, err := common.Start("kbench", args, stderr, logger)
	if err != nil {
		return err
	}
	defer session.Close()

	valid := map[string]bool{}
	for _, e := range experimentNames {
		valid[e] = true
	}
	want := map[string]bool{}
	for _, a := range fs.Args() {
		if a == "all" {
			for _, e := range allExperiments {
				want[e] = true
			}
			continue
		}
		if !valid[a] {
			return fmt.Errorf("unknown experiment %q; valid experiments: %s, all", a, strings.Join(experimentNames, " "))
		}
		want[a] = true
	}

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

	// With -metrics, enable the kernel counters for the duration of the
	// run and collect per-run records plus a phase-span trace.
	var collector *obs.Collector
	var trace *obs.Trace
	var countersBefore obs.Counters
	if *metricsPath != "" {
		collector = obs.NewCollector()
		cfg.Metrics = collector
		prev := obs.SetEnabled(true)
		defer obs.SetEnabled(prev)
		countersBefore = obs.ReadCounters()
		trace = obs.NewTrace("kbench")
	}
	// phase wraps one experiment's computation in a trace span and
	// propagates the write error of any report the body renders.
	phase := func(name string, fn func() error) error {
		if trace == nil {
			return fn()
		}
		sp := trace.Root().Child(name)
		err := fn()
		sp.End()
		return err
	}

	// Experiments share intermediate results: Table 2 feeds figs 5-6,
	// Tables 3-4 feed figs 7-9.
	var t2 *experiments.Table2Result
	needT2 := want["table2"] || want["fig5"] || want["fig6"]
	var t3 *experiments.Table3Result
	needT3 := want["table3"] || want["fig7"] || want["fig8"] || want["fig9"]
	var t4 *experiments.Table4Result
	needT4 := want["table4"] || want["fig9"]

	section := func(name string) {
		cli.Emit(stdout, "\n==== %s ====\n", name)
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
		if err := os.WriteFile(path, data, 0o644); err != nil {
			logger.Warn("svg write failed", "error", err)
			return
		}
		logger.Info("wrote figure", "path", path)
	}
	sw := obs.NewStopwatch()

	if needT2 {
		if err := phase("table2", func() error {
			r := experiments.Table2(cfg)
			t2 = &r
			return nil
		}); err != nil {
			return err
		}
	}
	if needT3 {
		if err := phase("table3", func() error {
			r := experiments.Table3(cfg)
			t3 = &r
			return nil
		}); err != nil {
			return err
		}
	}
	if needT4 {
		if err := phase("table4", func() error {
			r := experiments.Table4(cfg)
			t4 = &r
			return nil
		}); err != nil {
			return err
		}
	}

	if want["table2"] {
		section("Table 2")
		if err := experiments.WriteTable2(stdout, *t2); err != nil {
			return err
		}
	}
	if want["table3"] {
		section("Table 3")
		if err := experiments.WriteClusterTable(stdout, "Table 3: k-means variants vs k-AVG+ED (Rand Index)", t3.Baseline, t3.Rows, true); err != nil {
			return err
		}
	}
	if want["table4"] {
		section("Table 4")
		if err := experiments.WriteClusterTable(stdout, "Table 4: non-scalable methods vs k-AVG+ED (Rand Index)", t4.Baseline, t4.Rows, false); err != nil {
			return err
		}
	}
	if want["fig2"] {
		section("Figure 2")
		if err := phase("fig2", func() error { return experiments.WriteFig2(stdout, experiments.Fig2(cfg)) }); err != nil {
			return err
		}
	}
	if want["fig3"] {
		section("Figure 3")
		if err := phase("fig3", func() error { return experiments.WriteFig3(stdout, experiments.Fig3(cfg)) }); err != nil {
			return err
		}
	}
	if want["fig4"] {
		section("Figure 4")
		if err := phase("fig4", func() error { return experiments.WriteFig4(stdout, experiments.Fig4(cfg)) }); err != nil {
			return err
		}
	}
	if want["fig5"] {
		section("Figure 5")
		if err := phase("fig5", func() error {
			f5 := experiments.Fig5(cfg, *t2)
			if err := experiments.WriteScatter(stdout, "Figure 5a: SBD vs ED (1-NN accuracy)", "ED", "SBD", f5.Names, f5.ED, f5.SBD); err != nil {
				return err
			}
			if err := experiments.WriteScatter(stdout, "Figure 5b: SBD vs DTW (1-NN accuracy)", "DTW", "SBD", f5.Names, f5.DTW, f5.SBD); err != nil {
				return err
			}
			writeSVG("fig5a.svg", plot.Scatter("SBD vs ED (1-NN accuracy)", "ED", "SBD", f5.ED, f5.SBD, 0.3, 1.0))
			writeSVG("fig5b.svg", plot.Scatter("SBD vs DTW (1-NN accuracy)", "DTW", "SBD", f5.DTW, f5.SBD, 0.3, 1.0))
			return nil
		}); err != nil {
			return err
		}
	}
	if want["fig6"] {
		section("Figure 6")
		if err := phase("fig6", func() error {
			f6 := experiments.Fig6(cfg, *t2)
			if err := experiments.WriteRanks(stdout, "Figure 6: distance-measure average ranks (Friedman + Nemenyi)", f6); err != nil {
				return err
			}
			writeSVG("fig6.svg", plot.CDRanks("Distance-measure ranks", f6.Names, f6.AvgRanks, f6.CD, f6.Groups))
			return nil
		}); err != nil {
			return err
		}
	}
	if want["fig7"] {
		section("Figure 7")
		if err := phase("fig7", func() error {
			f7 := experiments.Fig7(cfg, *t3)
			if err := experiments.WriteScatter(stdout, "Figure 7a: k-Shape vs KSC (Rand Index)", "KSC", "k-Shape", f7.Names, f7.KSC, f7.KShape); err != nil {
				return err
			}
			if err := experiments.WriteScatter(stdout, "Figure 7b: k-Shape vs k-DBA (Rand Index)", "k-DBA", "k-Shape", f7.Names, f7.KDBA, f7.KShape); err != nil {
				return err
			}
			writeSVG("fig7a.svg", plot.Scatter("k-Shape vs KSC (Rand Index)", "KSC", "k-Shape", f7.KSC, f7.KShape, 0.3, 1.0))
			writeSVG("fig7b.svg", plot.Scatter("k-Shape vs k-DBA (Rand Index)", "k-DBA", "k-Shape", f7.KDBA, f7.KShape, 0.3, 1.0))
			return nil
		}); err != nil {
			return err
		}
	}
	if want["fig8"] {
		section("Figure 8")
		if err := phase("fig8", func() error {
			f8 := experiments.Fig8(cfg, *t3)
			if err := experiments.WriteRanks(stdout, "Figure 8: k-means-variant average ranks (Friedman + Nemenyi)", f8); err != nil {
				return err
			}
			writeSVG("fig8.svg", plot.CDRanks("k-means-variant ranks", f8.Names, f8.AvgRanks, f8.CD, f8.Groups))
			return nil
		}); err != nil {
			return err
		}
	}
	if want["fig9"] {
		section("Figure 9")
		if err := phase("fig9", func() error {
			f9 := experiments.Fig9(cfg, *t3, *t4)
			if err := experiments.WriteRanks(stdout, "Figure 9: methods beating k-AVG+ED, average ranks (Friedman + Nemenyi)", f9); err != nil {
				return err
			}
			writeSVG("fig9.svg", plot.CDRanks("Methods beating k-AVG+ED", f9.Names, f9.AvgRanks, f9.CD, f9.Groups))
			return nil
		}); err != nil {
			return err
		}
	}
	if want["fig10"] {
		section("Figure 10")
		if err := phase("fig10", func() error {
			return experiments.WriteAppendixA(stdout, experiments.AppendixA(cfg, experiments.NormOptimalScaling))
		}); err != nil {
			return err
		}
	}
	if want["fig11"] {
		section("Figure 11")
		if err := phase("fig11", func() error {
			if err := experiments.WriteAppendixA(stdout, experiments.AppendixA(cfg, experiments.NormValues01)); err != nil {
				return err
			}
			return experiments.WriteAppendixA(stdout, experiments.AppendixA(cfg, experiments.NormZScore))
		}); err != nil {
			return err
		}
	}
	if want["fig12"] {
		section("Figure 12")
		if err := phase("fig12", func() error {
			f12 := experiments.Fig12(cfg)
			if err := experiments.WriteFig12(stdout, f12); err != nil {
				return err
			}
			if len(f12.VaryN) > 0 {
				xs := make([]float64, len(f12.VaryN))
				kshapeS := make([]float64, len(f12.VaryN))
				kavgS := make([]float64, len(f12.VaryN))
				for i, p := range f12.VaryN {
					xs[i] = float64(p.N)
					kshapeS[i] = p.KShapeSeconds
					kavgS[i] = p.KAvgEDSeconds
				}
				writeSVG("fig12a.svg", plot.Lines("Runtime vs number of series (CBF)", "n", "seconds", xs,
					map[string][]float64{"k-Shape": kshapeS, "k-AVG+ED": kavgS}))
			}
			if len(f12.VaryM) > 0 {
				xs := make([]float64, len(f12.VaryM))
				kshapeS := make([]float64, len(f12.VaryM))
				kavgS := make([]float64, len(f12.VaryM))
				for i, p := range f12.VaryM {
					xs[i] = float64(p.M)
					kshapeS[i] = p.KShapeSeconds
					kavgS[i] = p.KAvgEDSeconds
				}
				writeSVG("fig12b.svg", plot.Lines("Runtime vs series length (CBF)", "m", "seconds", xs,
					map[string][]float64{"k-Shape": kshapeS, "k-AVG+ED": kavgS}))
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if want["ablations"] {
		section("Ablations")
		if err := phase("ablations", func() error {
			ab := experiments.Ablations(cfg)
			return experiments.WriteClusterTable(stdout,
				"Design-choice ablations vs full k-Shape (Rand Index)", ab.Rows[0], ab.Rows, true)
		}); err != nil {
			return err
		}
	}
	if want["table2x"] {
		section("Table 2 extended")
		if err := phase("table2x", func() error {
			return experiments.WriteTable2(stdout, experiments.Table2Extended(cfg))
		}); err != nil {
			return err
		}
	}
	if want["kestimation"] {
		section("k estimation")
		if err := phase("kestimation", func() error {
			return experiments.WriteKEstimation(stdout, experiments.KEstimation(cfg))
		}); err != nil {
			return err
		}
	}
	if want["datasets"] {
		section("Datasets")
		if err := phase("datasets", func() error {
			return experiments.WriteDatasetInventory(stdout, experiments.Inventory(cfg))
		}); err != nil {
			return err
		}
	}

	if *metricsPath != "" {
		names := make([]string, 0, len(want))
		for e := range want {
			names = append(names, e)
		}
		sort.Strings(names)
		report := collector.BuildReport("kbench", args, names,
			obs.ReadCounters().Sub(countersBefore), trace.Finish())
		f, err := os.Create(*metricsPath)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		if err := report.WriteJSON(f); err != nil {
			_ = f.Close() // surfacing the write error matters more
			return fmt.Errorf("metrics: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		logger.Info("wrote metrics report", "path", *metricsPath)
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
