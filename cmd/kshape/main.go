// Command kshape clusters a UCR-format time-series file from the command
// line.
//
// Usage:
//
//	kshape -k 3 [-method k-Shape] [-seed 1] [-out assignments.csv] data.tsv
//
// The input has one series per line: an integer class label (ignored for
// clustering, used to report the Rand Index when present) followed by the
// values, separated by commas, tabs, or spaces. Output is CSV with one line
// per series: index, assigned cluster, and (when labels exist) the true
// label; a summary with the Rand Index is printed to stderr.
//
// With -trace, a per-iteration convergence table (inertia, label churn,
// empty-cluster reseeds, refinement/assignment wall time, cluster sizes)
// and a kernel-counter summary are printed to stderr after clustering.
//
// With -listen ADDR, the process serves live telemetry while the run
// executes: /metrics (Prometheus text format: kernel counters, phase
// latency histograms, gauges, live progress), /progress (Server-Sent-
// Events stream of per-iteration snapshots), /healthz, and /debug/pprof. With -progress, a live one-line convergence display
// (iteration, inertia, churn, drift, ETA) refreshes on stderr; with
// -dashboard FILE, a self-contained HTML run dashboard (convergence
// curves, phase latencies, execution timeline, counters, build identity)
// is written after the run. Progress and summaries are structured log
// records (-log-level, -log-json); -version prints build information.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"

	"kshape"
	"kshape/internal/cli"
	"kshape/internal/dataset"
	"kshape/internal/eval"
	"kshape/internal/ts"
)

// telemetryScrapeHook, when non-nil, is called with the telemetry
// server's base URL after clustering finishes but before the server
// shuts down. The smoke test uses it to scrape /metrics at a moment
// when all phase samples have landed, without racing the run.
var telemetryScrapeHook func(baseURL string)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "kshape:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("kshape", flag.ContinueOnError)
	fs.SetOutput(stderr)
	k := fs.Int("k", 0, "number of clusters, 1 <= k <= the number of series (required)")
	method := fs.String("method", "k-Shape", "clustering method: "+strings.Join(kshape.Methods(), ", "))
	seed := fs.Int64("seed", 1, "random seed for initialization")
	outPath := fs.String("out", "", "write assignments CSV to this file (default stdout)")
	centroidsPath := fs.String("centroids", "", "write centroid series CSV to this file")
	traceRun := fs.Bool("trace", false, "print a per-iteration convergence table and kernel counters to stderr")
	workers := fs.Int("workers", runtime.NumCPU(), "max concurrent workers (1 = serial; results are identical for any value)")
	var common cli.Common
	common.Register(fs)
	common.RegisterListen(fs)
	common.RegisterReport(fs)
	common.RegisterProgress(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if common.HandleVersion(stderr, "kshape") {
		return nil
	}
	logger, err := common.Logger("kshape", stderr)
	if err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("exactly one input file expected, got %d", fs.NArg())
	}
	session, err := common.Start("kshape", args, stderr, logger)
	if err != nil {
		return err
	}
	defer session.Close()
	series, err := dataset.LoadUCRFile(fs.Arg(0))
	if err != nil {
		return err
	}
	data := ts.Rows(series)
	res, err := kshape.Cluster(data, *k, kshape.Options{
		Seed: *seed, Method: *method, CollectTrace: *traceRun, Workers: *workers, Logger: logger,
	})
	session.StopProgress()
	if err != nil {
		return err
	}

	var csv strings.Builder
	csv.WriteString("index,cluster,label\n")
	for i, l := range res.Labels {
		fmt.Fprintf(&csv, "%d,%d,%d\n", i, l, series[i].Label)
	}
	if err := cli.WriteFileOr(stdout, *outPath, []byte(csv.String())); err != nil {
		return err
	}

	if *centroidsPath != "" && res.Centroids != nil {
		var b strings.Builder
		for j, c := range res.Centroids {
			vals := make([]string, len(c))
			for i, v := range c {
				vals[i] = fmt.Sprintf("%.6f", v)
			}
			fmt.Fprintf(&b, "%d,%s\n", j, strings.Join(vals, ","))
		}
		if err := os.WriteFile(*centroidsPath, []byte(b.String()), 0o666); err != nil {
			return err
		}
	}

	logger.Info("clustering complete",
		"method", *method, "series", len(series), "k", *k,
		"iterations", res.Iterations, "converged", res.Converged)
	if *traceRun && res.Trace != nil {
		writeTrace(stderr, res.Trace)
	}
	if hasLabels(series) {
		ri := eval.RandIndex(res.Labels, ts.Labels(series))
		logger.Info("Rand Index vs file labels", "rand_index", fmt.Sprintf("%.4f", ri))
	}
	if url := session.URL(); url != "" && telemetryScrapeHook != nil {
		telemetryScrapeHook(url)
	}
	return session.Finish()
}

// writeTrace renders the per-iteration convergence table and the kernel
// counters accrued during the run. The table is assembled in memory
// (tabwriter over a strings.Builder cannot fail) and emitted to the
// diagnostic stream in one shot.
func writeTrace(w io.Writer, tr *kshape.RunTrace) {
	var b strings.Builder
	fmt.Fprintf(&b, "\nconvergence trace (%s, %.1f ms total):\n", tr.Method, float64(tr.TotalNS)/1e6)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	//lint:ignore errdrop tabwriter over a strings.Builder cannot fail
	fmt.Fprintln(tw, "iter\tinertia\tchurn\treseeds\trefine_ms\tassign_ms\tcluster_sizes")
	for _, it := range tr.Iterations {
		sizes := make([]string, len(it.ClusterSizes))
		for i, s := range it.ClusterSizes {
			sizes[i] = fmt.Sprintf("%d", s)
		}
		//lint:ignore errdrop tabwriter over a strings.Builder cannot fail
		fmt.Fprintf(tw, "%d\t%.4f\t%d\t%d\t%.2f\t%.2f\t%s\n",
			it.Iteration, it.Inertia, it.LabelChurn, it.Reseeds,
			float64(it.RefineNS)/1e6, float64(it.AssignNS)/1e6,
			strings.Join(sizes, "/"))
	}
	//lint:ignore errdrop tabwriter over a strings.Builder cannot fail
	tw.Flush()

	b.WriteString("kernel counters:")
	any := false
	tr.Counters.Each(func(name string, value int64) {
		if value != 0 {
			fmt.Fprintf(&b, " %s=%d", name, value)
			any = true
		}
	})
	if !any {
		b.WriteString(" (none)")
	}
	b.WriteString("\n")
	cli.Emit(w, "%s", b.String())
}

func hasLabels(series []ts.Series) bool {
	for _, s := range series {
		if s.Label != series[0].Label {
			return true
		}
	}
	return false
}
