package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kshape/internal/obs"
)

// TestRunFlightReport is the acceptance check for -report/-timeline: a
// reduced table3 sweep must produce a schema-valid kshape.runreport/v1
// document with multi-worker busy/wait attribution, a sampled runtime
// trajectory, and populated phase histograms, plus a well-formed SVG
// timeline.
func TestRunFlightReport(t *testing.T) {
	if testing.Short() {
		t.Skip("table3 sweep is slow")
	}
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "run.json")
	timelinePath := filepath.Join(dir, "timeline.svg")
	var out, errBuf bytes.Buffer
	// Two datasets: the sweep parallelizes over datasets, so a single
	// dataset would attribute all work to one pool worker.
	err := run([]string{"-datasets", "2", "-runs", "1", "-workers", "4",
		"-report", reportPath, "-timeline", timelinePath, "table3"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report fails schema validation: %v", err)
	}
	if rep.Tool != "kbench" {
		t.Errorf("tool = %q, want kbench", rep.Tool)
	}
	if rep.RunID == "" {
		t.Error("report missing run_id")
	}
	if len(rep.Workers) < 2 {
		t.Errorf("report attributes %d workers, want >= 2 with -workers 4", len(rep.Workers))
	}
	for _, w := range rep.Workers {
		if w.BusyNS+w.WaitNS != w.WallNS {
			t.Errorf("worker %d: busy %d + wait %d != wall %d", w.Worker, w.BusyNS, w.WaitNS, w.WallNS)
		}
	}
	if rep.Pool == nil || rep.Pool.Efficiency <= 0 || rep.Pool.Efficiency > 1 {
		t.Errorf("pool stats implausible: %+v", rep.Pool)
	}
	if len(rep.RuntimeSamples) < 10 {
		t.Errorf("report has %d runtime samples, want >= 10 from the background sampler", len(rep.RuntimeSamples))
	}
	populated := 0
	for _, p := range rep.Phases {
		if p.Count > 0 {
			populated++
		}
	}
	if populated < 3 {
		t.Errorf("only %d phase histograms populated: %+v", populated, rep.Phases)
	}
	if len(rep.Events) == 0 {
		t.Error("report carries no flight-recorder events")
	}
	// With several sweep workers, units overlap, so no record may claim a
	// counter delta of its own; the invocation total stays top-level.
	if len(rep.Runs) == 0 {
		t.Error("report carries no per-run records")
	}
	for _, r := range rep.Runs {
		if r.Counters != nil {
			t.Errorf("%s on %s carries counters %+v at -workers 4", r.Method, r.Dataset, *r.Counters)
		}
	}
	if rep.Counters.SBD == 0 {
		t.Errorf("top-level counters missing the invocation's SBD total: %+v", rep.Counters)
	}

	svg, err := os.ReadFile(timelinePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(svg), "<svg") || !strings.Contains(string(svg), "worker 0") {
		t.Errorf("timeline SVG malformed (%d bytes)", len(svg))
	}

	// The recorder must uninstall itself at finish: later runs in this
	// process must not leak events into this report's recorder.
	if obs.ActiveRecorder() != nil {
		t.Error("flight recorder still installed after run returned")
	}
}

// TestRunReportCarriesGrid is the acceptance check for the per-run
// records: a serial table2+table3 run must put the paper's score grid in
// the report's runs, with each record's own kernel counters and, for the
// iterative clustering methods, its per-iteration convergence trajectory.
func TestRunReportCarriesGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full table2+table3 sweep is slow")
	}
	path := filepath.Join(t.TempDir(), "run.json")
	var out, errBuf bytes.Buffer
	err := run([]string{"-datasets", "1", "-runs", "1", "-spectral-runs", "1", "-workers", "1",
		"-report", path, "table2", "table3"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report fails schema validation: %v", err)
	}

	// Global counters: table2 exercises ED, DTW and the FFT-backed SBD;
	// table3's k-Shape runs drive the eigensolver.
	c := rep.Counters
	if c.FFT == 0 || c.SBD == 0 || c.ED == 0 || c.DTW == 0 || c.EigenIterations == 0 {
		t.Errorf("expected nonzero fft/sbd/ed/dtw/eigen counters, got %+v", c)
	}

	// One timing record per experiment, correlated with the report.
	for _, name := range []string{"table2", "table3"} {
		if !strings.Contains(errBuf.String(), "experiment="+name) {
			t.Errorf("no timing log record for experiment %s", name)
		}
	}
	if !strings.Contains(errBuf.String(), "run_id="+rep.RunID) {
		t.Errorf("log records do not carry the report's run_id %q", rep.RunID)
	}

	kinds := map[string]bool{}
	perMethod := map[string]obs.Counters{}
	var kshapeRuns []obs.RunRecord
	for _, r := range rep.Runs {
		kinds[r.ScoreKind] = true
		if r.Counters == nil {
			t.Fatalf("%s on %s has no counters at -workers 1", r.Method, r.Dataset)
		}
		agg := perMethod[r.Method]
		perMethod[r.Method] = obs.Counters{
			FFT: agg.FFT + r.Counters.FFT,
			SBD: agg.SBD + r.Counters.SBD,
			ED:  agg.ED + r.Counters.ED,
		}
		if r.Method == "k-Shape" {
			kshapeRuns = append(kshapeRuns, r)
		}
	}
	if !kinds[obs.ScoreAccuracy1NN] || !kinds[obs.ScoreRandIndex] {
		t.Errorf("score kinds = %v, want both %s and %s", kinds, obs.ScoreAccuracy1NN, obs.ScoreRandIndex)
	}
	if perMethod["SBD"].SBD == 0 {
		t.Error("table2 SBD row recorded no SBD evaluations")
	}
	if perMethod["ED"].ED == 0 {
		t.Error("table2 ED row recorded no ED evaluations")
	}
	if len(kshapeRuns) == 0 {
		t.Fatal("no k-Shape run records from table3")
	}
	for _, r := range kshapeRuns {
		if len(r.Trajectory) == 0 || len(r.Trajectory) != r.Iterations {
			t.Errorf("k-Shape run on %s: %d trajectory entries, %d iterations",
				r.Dataset, len(r.Trajectory), r.Iterations)
		}
		for i, it := range r.Trajectory {
			if it.Iteration != i+1 {
				t.Errorf("trajectory entry %d numbered %d", i, it.Iteration)
			}
			if it.Inertia < 0 {
				t.Errorf("negative inertia %g at iteration %d", it.Inertia, it.Iteration)
			}
		}
		if r.Counters.FFT == 0 {
			t.Errorf("k-Shape run on %s recorded no FFT work", r.Dataset)
		}
	}
}

// TestRunReportFlagsOffIsNoop: without -report/-timeline no recorder is
// installed and no artifacts appear.
func TestRunReportFlagsOffIsNoop(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-datasets", "1", "fig2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if obs.ActiveRecorder() != nil {
		t.Error("recorder installed without -report")
	}
}
