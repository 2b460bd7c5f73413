// Command benchjson converts `go test -bench` output into the
// schema-stable JSON report committed as BENCH_kshape.json (see `make
// bench`). It reads the benchmark output from a file argument or stdin
// and writes JSON to -o (default stdout).
//
// Usage:
//
//	go test -bench=. -benchtime=1s -count=5 -run='^$' . > bench.out
//	benchjson -o BENCH_kshape.json bench.out
//
// With -count=N input each benchmark keeps its fastest run only (see
// benchfmt.Parse): background interference only ever slows a run down,
// so the minimum is the least-noisy sample.
//
// Schema (kshape.bench/v1): one object with build/host metadata and one
// entry per benchmark carrying iterations, ns/op, and every additional
// metric the benchmark reported — the "speedup" ratio of the parallel
// variants and the per-op kernel-counter deltas ("fft/op", "sbd/op", …)
// emitted by bench_test.go's benchCounters helper.
//
// The schema itself (types, parser, validation) lives in
// internal/benchfmt, shared with cmd/benchdiff.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"kshape/internal/benchfmt"
	"kshape/internal/cli"
)

// Report is the top-level JSON document.
type Report = benchfmt.Report

// Parse reads `go test -bench` output and assembles the report.
func Parse(r io.Reader) (*Report, error) { return benchfmt.Parse(r) }

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	outPath := fs.String("o", "", "write the JSON report to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var in io.Reader = os.Stdin
	if fs.NArg() > 1 {
		return fmt.Errorf("at most one input file expected, got %d", fs.NArg())
	}
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	rep, err := Parse(in)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return cli.WriteFileOr(stdout, *outPath, buf.Bytes())
}
