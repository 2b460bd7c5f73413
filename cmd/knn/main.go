// Command knn runs 1-nearest-neighbor time-series classification — the
// protocol behind the paper's distance-measure evaluation (Table 2) — on
// UCR-format files.
//
// Usage:
//
//	knn [-measure SBD] [-out predictions.csv] train.tsv test.tsv
//
// Each input line is an integer label followed by the series values
// (comma, tab, or space separated). The tool prints per-query predictions
// as CSV and the overall accuracy (when the test file carries labels) to
// stderr.
//
// With -listen ADDR, the process serves live telemetry while the
// classification runs: /metrics (Prometheus text format: kernel
// counters, phase latency histograms), /healthz, and /debug/pprof —
// the same scrape surface as kshape and kbench.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"kshape"
	"kshape/internal/cli"
	"kshape/internal/dataset"
	"kshape/internal/ts"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "knn:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("knn", flag.ContinueOnError)
	fs.SetOutput(stderr)
	measure := fs.String("measure", "SBD", "distance measure: "+strings.Join(kshape.Measures(), ", "))
	outPath := fs.String("out", "", "write predictions CSV to this file (default stdout)")
	workers := fs.Int("workers", runtime.NumCPU(), "max concurrent workers (1 = serial; results are identical for any value)")
	var common cli.Common
	common.Register(fs)
	common.RegisterListen(fs)
	common.RegisterReport(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if common.HandleVersion(stderr, "knn") {
		return nil
	}
	logger, err := common.Logger("knn", stderr)
	if err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("expected train and test files, got %d arguments", fs.NArg())
	}
	session, err := common.Start("knn", args, stderr, logger)
	if err != nil {
		return err
	}
	defer session.Close()
	ds, err := dataset.LoadUCRDataset("", fs.Arg(0), fs.Arg(1))
	if err != nil {
		return err
	}
	train, test := ds.Train, ds.Test
	pred, err := kshape.Classify1NNWorkers(ts.Rows(train), ts.Labels(train), ts.Rows(test), *measure, false, *workers)
	if err != nil {
		return err
	}

	var csv strings.Builder
	csv.WriteString("index,predicted,label\n")
	correct := 0
	for i, p := range pred {
		fmt.Fprintf(&csv, "%d,%d,%d\n", i, p, test[i].Label)
		if p == test[i].Label {
			correct++
		}
	}
	if err := cli.WriteFileOr(stdout, *outPath, []byte(csv.String())); err != nil {
		return err
	}
	logger.Info("1-NN classification complete",
		"measure", *measure, "correct", correct, "queries", len(test),
		"accuracy", fmt.Sprintf("%.4f", float64(correct)/float64(len(test))))
	return session.Finish()
}
