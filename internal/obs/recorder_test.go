package obs

import (
	"sync"
	"testing"
	"time"
)

func TestRecorderRingKeepsMostRecent(t *testing.T) {
	r := NewRecorder(4) // rounds to 4 slots
	for i := 1; i <= 6; i++ {
		r.RecordIteration(i)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		want := int32(i + 3) // iterations 3..6 survive
		if ev.Kind != EventIteration || ev.Iter != want {
			t.Errorf("event %d = kind %v iter %d, want iteration %d", i, ev.Kind, ev.Iter, want)
		}
	}
	if got := r.Evicted(); got != 2 {
		t.Errorf("Evicted() = %d, want 2", got)
	}
}

func TestRecorderEventsBelowCapacity(t *testing.T) {
	r := NewRecorder(8)
	r.RecordMark("a")
	r.RecordMark("b")
	evs := r.Events()
	if len(evs) != 2 || evs[0].Label != "a" || evs[1].Label != "b" {
		t.Fatalf("Events() = %+v, want marks a, b in order", evs)
	}
	if r.Evicted() != 0 {
		t.Errorf("Evicted() = %d, want 0", r.Evicted())
	}
}

func TestRecorderCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultEventCapacity}, {-1, DefaultEventCapacity},
		{1, 1}, {3, 4}, {4, 4}, {1000, 1024},
	} {
		r := NewRecorder(tc.in)
		if len(r.slots) != tc.want {
			t.Errorf("NewRecorder(%d) capacity = %d, want %d", tc.in, len(r.slots), tc.want)
		}
	}
}

func TestRecordPhaseSpanEmitsEnterExitPair(t *testing.T) {
	r := NewRecorder(16)
	r.RecordPhaseSpan(PhaseAssign, 1000)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want enter+exit", len(evs))
	}
	enter, exit := evs[0], evs[1]
	if enter.Kind != EventPhaseEnter || exit.Kind != EventPhaseExit {
		t.Fatalf("kinds = %v, %v", enter.Kind, exit.Kind)
	}
	if enter.Phase != PhaseAssign || exit.Phase != PhaseAssign {
		t.Errorf("phases = %v, %v, want assign", enter.Phase, exit.Phase)
	}
	if exit.AtNS-enter.AtNS != 1000 || exit.DurNS != 1000 {
		t.Errorf("span [%d, %d] dur %d, want a 1000ns span", enter.AtNS, exit.AtNS, exit.DurNS)
	}
}

func TestRecorderConcurrentWritersDontRace(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.RecordChunk(worker, i, i+1, int64(i), 1)
				r.AddWorkerSpan(worker, 1, 1, 1, 0, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := r.next.Load(); got != 8*500 {
		t.Fatalf("recorded %d events, want %d", got, 8*500)
	}
	var chunks int64
	for w := 0; w < 8; w++ {
		chunks += r.workers[w].chunks.Load()
	}
	if chunks != 8*500 {
		t.Fatalf("worker table counted %d chunks, want %d", chunks, 8*500)
	}
}

func TestWorkerClampFoldsOutOfRangeIDs(t *testing.T) {
	r := NewRecorder(16)
	r.AddWorkerSpan(-5, 1, 1, 1, 0, 1)
	r.AddWorkerSpan(maxRecorderWorkers+10, 1, 1, 1, 0, 1)
	if got := r.workers[0].chunks.Load(); got != 1 {
		t.Errorf("negative worker not folded to 0 (chunks = %d)", got)
	}
	if got := r.workers[maxRecorderWorkers-1].chunks.Load(); got != 1 {
		t.Errorf("oversized worker not folded to last slot (chunks = %d)", got)
	}
	if got := r.overflow.Load(); got != 2 {
		t.Errorf("overflow = %d, want 2", got)
	}
}

func TestSamplerTakesStartAndStopSamples(t *testing.T) {
	r := NewRecorder(16)
	stop := r.StartSampler(time.Hour) // interval never fires in-test
	stop()
	samples, dropped := r.Samples()
	if len(samples) < 2 {
		t.Fatalf("got %d samples, want >= 2 (start + stop)", len(samples))
	}
	if dropped != 0 {
		t.Errorf("dropped = %d, want 0", dropped)
	}
	for i, s := range samples {
		if s.Goroutines < 1 {
			t.Errorf("sample %d has %d goroutines", i, s.Goroutines)
		}
		if i > 0 && s.AtNS < samples[i-1].AtNS {
			t.Errorf("sample %d timestamp went backward", i)
		}
	}
}

func TestSamplerTicks(t *testing.T) {
	r := NewRecorder(16)
	stop := r.StartSampler(time.Millisecond)
	time.Sleep(25 * time.Millisecond)
	stop()
	samples, _ := r.Samples()
	if len(samples) < 5 {
		t.Fatalf("got %d samples after 25ms at 1ms interval, want >= 5", len(samples))
	}
}

func TestSetRecorderInstallsAndRestores(t *testing.T) {
	if ActiveRecorder() != nil {
		t.Fatal("recorder active at test start")
	}
	r := NewRecorder(16)
	prev := SetRecorder(r)
	if prev != nil {
		t.Errorf("previous recorder = %v, want nil", prev)
	}
	if ActiveRecorder() != r {
		t.Error("ActiveRecorder() != installed recorder")
	}
	rec := ActiveRecorder()
	rec.RecordMark("via the active recorder")
	rec.RecordIteration(1)
	rec.RecordPhaseSpan(PhaseRefine, 10)
	if SetRecorder(nil) != r {
		t.Error("SetRecorder(nil) did not return the installed recorder")
	}
	if got := len(r.Events()); got != 4 {
		t.Errorf("hooks on the active recorder recorded %d events, want 4", got)
	}
	// With no recorder installed the hooks run on nil and must be no-ops,
	// not panics.
	rec = ActiveRecorder()
	rec.RecordMark("dropped")
	rec.RecordIteration(2)
	rec.RecordPhaseSpan(PhaseAssign, 10)
	if got := len(r.Events()); got != 4 {
		t.Errorf("hooks wrote to an uninstalled recorder (%d events)", got)
	}
}

func TestStartPhaseFeedsRecorderWithoutCounters(t *testing.T) {
	if Enabled() {
		t.Fatal("collection enabled at test start")
	}
	r := NewRecorder(16)
	defer SetRecorder(SetRecorder(r))
	stop := StartPhase(PhasePairwiseMatrix)
	stop()
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("StartPhase with recorder but disabled counters recorded %d events, want 2", len(evs))
	}
	if evs[0].Phase != PhasePairwiseMatrix {
		t.Errorf("phase = %v, want pairwise_matrix", evs[0].Phase)
	}
}

// TestReportPhasesCoverOnlyOwnWindow pins the run report's scope: its
// phase summaries count only the spans recorded on its own recorder
// since NewRecorder — never spans that landed before it existed, on an
// earlier recorder, or while no recorder was installed.
func TestReportPhasesCoverOnlyOwnWindow(t *testing.T) {
	defer SetEnabled(SetEnabled(true))
	defer SetRecorder(SetRecorder(nil))

	StartPhase(PhaseAssign)() // no recorder installed
	SetRecorder(NewRecorder(0))
	for i := 0; i < 3; i++ {
		StartPhase(PhaseAssign)() // an earlier recorder's window
	}

	empty := NewRecorder(0)
	for _, p := range empty.Report("obs_test", "", nil, Counters{}).Phases {
		if p.Count != 0 || p.SumNS != 0 {
			t.Errorf("recorder with an empty window reports phase %q with %d samples", p.Name, p.Count)
		}
	}

	r := NewRecorder(0)
	SetRecorder(r)
	StartPhase(PhaseAssign)()
	r.RecordPhaseSpan(PhaseRefine, 500)
	counts := map[string]int64{}
	for _, p := range r.Report("obs_test", "", nil, Counters{}).Phases {
		counts[p.Name] = p.Count
	}
	want := map[string]int64{"pairwise_matrix": 0, "assign": 1, "refine": 1, "iteration": 0, "shape_extract": 0}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("phase %q counted %d samples, want %d (only this recorder's window)", name, counts[name], n)
		}
	}
}
