package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"kshape/internal/benchfmt"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: kshape
cpu: Test CPU @ 2.00GHz
BenchmarkED128-8   	15704728	        76.41 ns/op	       0 B/op	       0 allocs/op
BenchmarkDistanceMatrixSBDParallel-8   	       1	  12345678 ns/op	 123456 B/op	      42 allocs/op	         3.210 speedup	     7140 sbd/op	    14280 fft/op
BenchmarkKShapeRefinementSerial   	       2	   9876543 ns/op
PASS
ok  	kshape	12.345s
`

func TestParseSampleOutput(t *testing.T) {
	rep, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != benchfmt.Schema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.Package != "kshape" {
		t.Errorf("header fields = %q %q %q", rep.GOOS, rep.GOARCH, rep.Package)
	}
	if !strings.Contains(rep.CPU, "Test CPU") {
		t.Errorf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("benchmarks = %d, want 3", len(rep.Benchmarks))
	}

	ed := rep.Benchmarks[0]
	if ed.Name != "ED128" || ed.Procs != 8 || ed.Iterations != 15704728 {
		t.Errorf("ED128 parsed as %+v", ed)
	}
	if ed.NsPerOp != 76.41 {
		t.Errorf("ED128 ns/op = %g", ed.NsPerOp)
	}

	par := rep.Benchmarks[1]
	if par.Name != "DistanceMatrixSBDParallel" {
		t.Errorf("name = %q", par.Name)
	}
	if par.Metrics["speedup"] != 3.21 {
		t.Errorf("speedup = %g", par.Metrics["speedup"])
	}
	if par.Metrics["sbd/op"] != 7140 || par.Metrics["fft/op"] != 14280 {
		t.Errorf("counter metrics = %v", par.Metrics)
	}
	if par.Metrics["B/op"] != 123456 {
		t.Errorf("B/op = %g", par.Metrics["B/op"])
	}

	noProcs := rep.Benchmarks[2]
	if noProcs.Name != "KShapeRefinementSerial" || noProcs.Procs != 0 {
		t.Errorf("suffix-less benchmark parsed as %+v", noProcs)
	}
}

// TestParseCollapsesRepeatedRuns covers `go test -count=N` input: each
// benchmark keeps only its fastest run, with that run's sibling metrics,
// and the report stays valid (no duplicate names).
func TestParseCollapsesRepeatedRuns(t *testing.T) {
	const repeated = `goos: linux
pkg: kshape
BenchmarkSBD128-8   	100	     20000 ns/op	    64 B/op	       2 allocs/op
BenchmarkED128-8   	1000	        80.0 ns/op
BenchmarkSBD128-8   	120	     17000 ns/op	    48 B/op	       1 allocs/op
BenchmarkED128-8   	1000	        95.0 ns/op
BenchmarkSBD128-8   	110	     18000 ns/op	    64 B/op	       2 allocs/op
PASS
`
	rep, err := Parse(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want 2", len(rep.Benchmarks))
	}
	sbd := rep.Benchmarks[0]
	if sbd.Name != "SBD128" || sbd.NsPerOp != 17000 || sbd.Iterations != 120 {
		t.Errorf("fastest SBD128 run not kept: %+v", sbd)
	}
	if sbd.Metrics["B/op"] != 48 || sbd.Metrics["allocs/op"] != 1 {
		t.Errorf("metrics should come from the fastest run, got %v", sbd.Metrics)
	}
	if ed := rep.Benchmarks[1]; ed.Name != "ED128" || ed.NsPerOp != 80 {
		t.Errorf("fastest ED128 run not kept: %+v", ed)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok  kshape 0.1s\n")); err == nil {
		t.Error("input without benchmarks should fail validation")
	}
}

func TestValidateCatchesDuplicates(t *testing.T) {
	rep := &Report{
		Schema: benchfmt.Schema, GoVersion: "go1.22",
		Benchmarks: []benchfmt.Benchmark{
			{Name: "A", Iterations: 1},
			{Name: "A", Iterations: 1},
		},
	}
	if err := rep.Validate(); err == nil {
		t.Error("duplicate names should fail validation")
	}
}

// TestCommittedReportValidates is the acceptance check for `make bench`:
// the BENCH_kshape.json at the repository root must parse as a valid
// v1 report and contain the serial/parallel benchmark family with its
// ratio (speedup, or batch_vs_perpair for the pairwise matrix) and
// kernel-counter metrics.
func TestCommittedReportValidates(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_kshape.json")
	if err != nil {
		t.Fatalf("BENCH_kshape.json missing (run `make bench`): %v", err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("BENCH_kshape.json is not valid JSON: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("BENCH_kshape.json invalid: %v", err)
	}
	byName := map[string]benchfmt.Benchmark{}
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	for _, name := range []string{
		"DistanceMatrixSBDSerial", "DistanceMatrixSBDParallel",
		"KShapeRefinementSerial", "KShapeRefinementParallel",
		"OneNNSerial", "OneNNParallel",
	} {
		b, ok := byName[name]
		if !ok {
			t.Errorf("report missing benchmark %q", name)
			continue
		}
		if strings.HasSuffix(name, "Parallel") {
			ratio := "speedup"
			if name == "DistanceMatrixSBDParallel" {
				ratio = "batch_vs_perpair" // per-pair vs batch kernel, not a worker-count ratio
			}
			if b.Metrics[ratio] <= 0 {
				t.Errorf("%s: no %s metric (metrics: %v)", name, ratio, b.Metrics)
			}
		}
		if b.Metrics["sbd/op"] <= 0 {
			t.Errorf("%s: no sbd/op kernel-counter metric (metrics: %v)", name, b.Metrics)
		}
	}
}
