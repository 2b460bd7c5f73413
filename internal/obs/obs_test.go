package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestCountersDisabledByDefault(t *testing.T) {
	if Enabled() {
		t.Fatal("counters enabled at package init")
	}
	before := ReadCounters()
	Inc(CounterFFT)
	Add(CounterSBD, 100)
	got := ReadCounters().Sub(before)
	if got.Total() != 0 {
		t.Fatalf("disabled counters accrued counts: %+v", got)
	}
}

func TestCounterAtomicityUnderGoroutines(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	before := ReadCounters()

	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				Inc(CounterSBD)
				Add(CounterEigenIterations, 3)
			}
		}()
	}
	wg.Wait()

	got := ReadCounters().Sub(before)
	if got.SBD != workers*perWorker {
		t.Errorf("SBD = %d, want %d", got.SBD, workers*perWorker)
	}
	if got.EigenIterations != 3*workers*perWorker {
		t.Errorf("EigenIterations = %d, want %d", got.EigenIterations, 3*workers*perWorker)
	}
}

func TestSetEnabledReturnsPrevious(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	if !SetEnabled(false) {
		t.Error("SetEnabled(false) should report previously-enabled")
	}
	if SetEnabled(prev) {
		t.Error("SetEnabled should report previously-disabled")
	}
}

func TestCounterString(t *testing.T) {
	if CounterFFT.String() != "fft" {
		t.Errorf("CounterFFT.String() = %q", CounterFFT.String())
	}
	if CounterEigenIterations.String() != "eigen_iterations" {
		t.Errorf("CounterEigenIterations.String() = %q", CounterEigenIterations.String())
	}
	if Counter(-1).String() != "unknown" || numCounters.String() != "unknown" {
		t.Error("out-of-range counters should stringify as unknown")
	}
}

// TestReportJSONRoundTrip round-trips a run report carrying per-run
// records through its JSON encoding.
func TestReportJSONRoundTrip(t *testing.T) {
	rec := NewRecorder(16)
	rec.RecordRun(RunRecord{
		Method: "k-Shape", Dataset: "CBF", Run: 1, Seconds: 0.25,
		Score: 0.9, ScoreKind: ScoreRandIndex, Iterations: 2, Converged: true,
		Counters: &Counters{FFT: 10, IFFT: 5, SBD: 7},
		Trajectory: []IterationStats{
			{Iteration: 1, Inertia: 12.5, LabelChurn: 30, ClusterSizes: []int{10, 20}, RefineNS: 100, AssignNS: 200},
			{Iteration: 2, Inertia: 11.0, LabelChurn: 0, ClusterSizes: []int{12, 18}, RefineNS: 90, AssignNS: 180, Reseeds: 1},
		},
	})
	rec.RecordRun(RunRecord{Method: "ED", Dataset: "CBF", Seconds: 0.01, Score: 0.8, ScoreKind: ScoreAccuracy1NN})
	report := rec.Report("kbench", "runid", []string{"-report", "x.json"}, Counters{FFT: 10, SBD: 7})

	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped report invalid: %v", err)
	}
	if back.Tool != "kbench" || len(back.Runs) != 2 || back.Counters.FFT != 10 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	r := back.Runs[0]
	if r.Method != "k-Shape" || len(r.Trajectory) != 2 || r.Trajectory[1].Reseeds != 1 ||
		r.Counters == nil || r.Counters.SBD != 7 {
		t.Fatalf("run record mismatch: %+v", r)
	}
	if back.Runs[1].Counters != nil {
		t.Errorf("record without counters came back with %+v", back.Runs[1].Counters)
	}

	// The wire names must stay snake_case and match Counter.String, and a
	// record without counters omits the key.
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	counters, ok := raw["counters"].(map[string]any)
	if !ok {
		t.Fatalf("counters not an object: %T", raw["counters"])
	}
	for c := Counter(0); c < numCounters; c++ {
		if _, ok := counters[c.String()]; !ok {
			t.Errorf("counters JSON missing key %q", c.String())
		}
	}
	runs, ok := raw["runs"].([]any)
	if !ok || len(runs) != 2 {
		t.Fatalf("runs not a 2-element array: %v", raw["runs"])
	}
	if _, ok := runs[1].(map[string]any)["counters"]; ok {
		t.Error("record without counters serialized a counters key")
	}
}

// TestRecordRunConcurrent appends records from many goroutines; under
// -race it doubles as the data-race check for RecordRun.
func TestRecordRunConcurrent(t *testing.T) {
	rec := NewRecorder(16)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(run int) {
			defer wg.Done()
			rec.RecordRun(RunRecord{Method: "m", Run: run, ScoreKind: ScoreRandIndex})
		}(i)
	}
	wg.Wait()
	runs := rec.runRecords()
	if len(runs) != 32 {
		t.Fatalf("got %d records, want 32", len(runs))
	}
	seen := map[int]bool{}
	for _, r := range runs {
		seen[r.Run] = true
	}
	if len(seen) != 32 {
		t.Errorf("got %d distinct runs, want 32", len(seen))
	}
	var nilRec *Recorder
	nilRec.RecordRun(RunRecord{Method: "m"}) // must not panic
}

func TestCountersSubTotal(t *testing.T) {
	a := Counters{FFT: 5, SBD: 3, Reseeds: 1}
	b := Counters{FFT: 2, SBD: 3}
	d := a.Sub(b)
	if d.FFT != 3 || d.SBD != 0 || d.Reseeds != 1 {
		t.Errorf("Sub = %+v", d)
	}
	if d.Total() != 4 {
		t.Errorf("Total = %d, want 4", d.Total())
	}
}
