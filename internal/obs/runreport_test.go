package obs_test

// External-package tests for the run report: Validate invariants on real
// recorder output, and a golden snapshot of the JSON encoding (registered
// under the shared golden harness) built from a fixed literal so the
// snapshot is deterministic.

import (
	"strings"
	"testing"

	"kshape/internal/obs"
	"kshape/internal/testkit"
)

// buildReport exercises a real recorder end to end and returns its report.
func buildReport(t *testing.T) obs.RunReport {
	t.Helper()
	r := obs.NewRecorder(256)
	prev := obs.SetRecorder(r)
	defer obs.SetRecorder(prev)
	stop := r.StartSampler(0)
	r.RecordMark("method:test")
	r.RecordPhaseSpan(obs.PhaseAssign, 1000)
	r.RecordPhaseSpan(obs.PhaseRefine, 2000)
	r.RecordIteration(1)
	r.RecordChunk(0, 0, 8, 10, 500)
	r.RecordChunk(1, 8, 16, 12, 600)
	r.AddWorkerSpan(0, 1, 8, 500, 40, 540)
	r.AddWorkerSpan(1, 1, 8, 600, 20, 620)
	r.RecordRun(obs.RunRecord{
		Method: "k-Shape", Dataset: "CBF", Seconds: 0.5, Score: 0.7,
		ScoreKind: obs.ScoreRandIndex, Iterations: 1,
		Trajectory: []obs.IterationStats{{Iteration: 1}},
	})
	stop()
	return r.Report("obs_test", "runid01", []string{"-fake"}, obs.Counters{})
}

func TestReportValidatesOnRealRecorder(t *testing.T) {
	rep := buildReport(t)
	if err := rep.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
	if len(rep.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(rep.Workers))
	}
	for _, w := range rep.Workers {
		if w.BusyNS+w.WaitNS != w.WallNS {
			t.Errorf("worker %d: busy %d + wait %d != wall %d", w.Worker, w.BusyNS, w.WaitNS, w.WallNS)
		}
	}
	if rep.Pool == nil {
		t.Fatal("pool stats missing with two attributed workers")
	}
	if rep.Pool.Workers != 2 {
		t.Errorf("pool workers = %d, want 2", rep.Pool.Workers)
	}
	if len(rep.RuntimeSamples) < 2 {
		t.Errorf("runtime samples = %d, want >= 2", len(rep.RuntimeSamples))
	}
	if len(rep.Runs) != 1 || rep.Runs[0].Method != "k-Shape" {
		t.Errorf("runs = %+v, want the one recorded", rep.Runs)
	}
	if len(rep.Events) < 7 {
		t.Errorf("events = %d, want the 7 recorded", len(rep.Events))
	}
}

func TestReportValidateCatchesCorruption(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*obs.RunReport)
		want string
	}{
		{"bad schema", func(r *obs.RunReport) { r.Schema = "nope" }, "schema"},
		{"missing tool", func(r *obs.RunReport) { r.Tool = "" }, "tool"},
		{"missing build key", func(r *obs.RunReport) { delete(r.Build, "revision") }, "revision"},
		{"phase count", func(r *obs.RunReport) { r.Phases = r.Phases[:2] }, "phase summaries"},
		{"phase name", func(r *obs.RunReport) { r.Phases[0].Name = "bogus" }, "named"},
		{"worker identity", func(r *obs.RunReport) { r.Workers[0].WaitNS += 7 }, "!= wall"},
		{"sample order", func(r *obs.RunReport) {
			r.RuntimeSamples[0].AtNS = r.RuntimeSamples[len(r.RuntimeSamples)-1].AtNS + 1
		}, "backward"},
		{"capacity", func(r *obs.RunReport) { r.Recorder.EventCapacity = 0 }, "capacity"},
		{"score kind", func(r *obs.RunReport) { r.Runs[0].ScoreKind = "f1" }, "score_kind"},
		{"run seconds", func(r *obs.RunReport) { r.Runs[0].Seconds = -1 }, "negative seconds"},
		{"trajectory", func(r *obs.RunReport) { r.Runs[0].Iterations = 2 }, "trajectory"},
	}
	for _, tc := range mutations {
		rep := buildReport(t)
		tc.mut(&rep)
		err := rep.Validate()
		if err == nil {
			t.Errorf("%s: Validate() passed corrupted report", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// fixedReport is a fully deterministic report literal for the golden
// snapshot: every field that would vary run to run (clocks, build info,
// runtime stats) is pinned.
func fixedReport() obs.RunReport {
	return obs.RunReport{
		Schema: obs.RunReportSchema,
		Tool:   "kshape",
		Args:   []string{"-k", "3", "data.tsv"},
		RunID:  "0123abcd",
		Build: map[string]string{
			"version": "v1.0.0", "revision": "deadbeefcafe", "modified": "false",
			"go": "go1.24.0", "time": "2026-01-01T00:00:00Z",
		},
		WallNS: 5_000_000,
		Phases: []obs.PhaseStats{
			{Name: "pairwise_matrix"},
			{Name: "assign", Count: 2, SumNS: 2000, P50NS: 1000, P95NS: 1900, P99NS: 1980},
			{Name: "refine", Count: 2, SumNS: 4000, P50NS: 2000, P95NS: 3800, P99NS: 3960},
			{Name: "iteration", Count: 2, SumNS: 6000, P50NS: 3000, P95NS: 5700, P99NS: 5940},
			{Name: "shape_extract", Count: 6, SumNS: 1200, P50NS: 200, P95NS: 380, P99NS: 396},
		},
		Workers: []obs.WorkerStats{
			{Worker: 0, Chunks: 4, Items: 32, BusyNS: 2200, WaitNS: 100, WallNS: 2300},
			{Worker: 1, Chunks: 4, Items: 32, BusyNS: 2000, WaitNS: 300, WallNS: 2300},
		},
		Pool: &obs.PoolStats{
			Workers: 2, ChunksNS: 4200, WaitNS: 400, WallNS: 4600,
			Efficiency: 0.9130434782608695, Imbalance: 1.1,
		},
		RuntimeSamples: []obs.RuntimeSample{
			{AtNS: 0, HeapInuseBytes: 1 << 20, HeapAllocBytes: 1 << 19, TotalAllocBytes: 1 << 21, Mallocs: 1000, Goroutines: 4},
			{AtNS: 5_000_000, HeapInuseBytes: 1 << 21, HeapAllocBytes: 1 << 20, TotalAllocBytes: 1 << 22, Mallocs: 2000, GCPauseTotalNS: 50_000, NumGC: 1, Goroutines: 6},
		},
		Events: []obs.ReportEvent{
			{AtNS: 0, Kind: "mark", Worker: -1, Label: "method:k-Shape"},
			{AtNS: 10, Kind: "phase_enter", Phase: "assign", Worker: -1},
			{AtNS: 1010, DurNS: 1000, Kind: "phase_exit", Phase: "assign", Worker: -1},
			{AtNS: 20, DurNS: 490, Kind: "chunk", Lo: 0, Hi: 16},
			{AtNS: 25, DurNS: 480, Kind: "chunk", Worker: 1, Lo: 16, Hi: 32},
			{AtNS: 1020, Kind: "iteration", Worker: -1, Iter: 1},
		},
		Recorder: obs.RecorderStats{
			EventCapacity: 8192, EventsRecorded: 6, Samples: 2, SampleIntervalMS: 20,
		},
	}
}

// TestRunReportGoldenJSON pins the report's JSON encoding byte-for-byte:
// any field rename, reorder, or format change in the kshape.runreport/v1
// schema must show up as a reviewed golden diff.
func TestRunReportGoldenJSON(t *testing.T) {
	rep := fixedReport()
	if err := rep.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	var b strings.Builder
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	testkit.Golden(t, "runreport_v1", b.String())
}
