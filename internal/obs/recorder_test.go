package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// evicted reads the ring's eviction count off r's run report.
func evicted(r *Recorder) int64 {
	return r.Report("obs_test", "", nil, Counters{}).Recorder.EventsEvicted
}

func TestRecorderRingKeepsMostRecent(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 6; i++ {
		r.RecordIteration(i)
	}
	evs := r.orderedEvents()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		want := int32(i + 3) // iterations 3..6 survive
		if ev.Kind != EventIteration || ev.Iter != want {
			t.Errorf("event %d = kind %v iter %d, want iteration %d", i, ev.Kind, ev.Iter, want)
		}
	}
	if got := evicted(r); got != 2 {
		t.Errorf("events_evicted = %d, want 2", got)
	}
}

func TestRecorderEventsBelowCapacity(t *testing.T) {
	r := NewRecorder(8)
	r.RecordMark("a")
	r.RecordMark("b")
	evs := r.orderedEvents()
	if len(evs) != 2 || evs[0].Label != "a" || evs[1].Label != "b" {
		t.Fatalf("events = %+v, want marks a, b in order", evs)
	}
	if got := evicted(r); got != 0 {
		t.Errorf("events_evicted = %d, want 0", got)
	}
}

// TestRecorderCapacityRounding pins that the ring keeps exactly the
// requested number of events, with no rounding, once it has wrapped.
func TestRecorderCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultEventCapacity}, {-1, DefaultEventCapacity},
		{1, 1}, {3, 3}, {4, 4}, {1000, 1000},
	} {
		r := NewRecorder(tc.in)
		for i := 0; i < tc.want+5; i++ {
			r.RecordIteration(i + 1)
		}
		rep := r.Report("obs_test", "", nil, Counters{})
		if rep.Recorder.EventCapacity != tc.want || len(rep.Events) != tc.want {
			t.Errorf("NewRecorder(%d): capacity %d holding %d events, want %d",
				tc.in, rep.Recorder.EventCapacity, len(rep.Events), tc.want)
		}
		if rep.Recorder.EventsEvicted != 5 || rep.Events[0].Iter != 6 {
			t.Errorf("NewRecorder(%d): %d evicted, oldest kept iteration %d; want 5 and 6",
				tc.in, rep.Recorder.EventsEvicted, rep.Events[0].Iter)
		}
	}
}

func TestRecordPhaseSpanEmitsEnterExitPair(t *testing.T) {
	r := NewRecorder(16)
	r.RecordPhaseSpan(PhaseAssign, 1000)
	evs := r.orderedEvents()
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
	if got := r.recorded; got != 8*500 {
		t.Fatalf("recorded %d events, want %d", got, 8*500)
	}
	var chunks int64
	for _, w := range r.workers {
		chunks += w.Chunks
	}
	if chunks != 8*500 {
		t.Fatalf("worker table counted %d chunks, want %d", chunks, 8*500)
	}
	// The table grows to the highest worker ID reported, so a large ID
	// gets its own row.
	r.AddWorkerSpan(300, 1, 1, 1, 0, 1)
	workers := r.Report("obs_test", "", nil, Counters{}).Workers
	if len(workers) != 9 || workers[8].Worker != 300 || workers[8].Chunks != 1 {
		t.Fatalf("worker rows %+v, want workers 0-7 and 300", workers)
	}
}

// TestRecorderConsistentUnderConcurrentRecording drives every recording
// hook from 8 goroutines while a reader takes run reports, progress
// snapshots and Prometheus scrapes. Every mid-run read must be a
// consistent view — a valid report whose retained events match its
// counts, phase histograms whose buckets add up to their counts — and the
// final totals must be exact. Run under -race it is also the data-race
// check for the recorder's lock.
func TestRecorderConsistentUnderConcurrentRecording(t *testing.T) {
	const writers, perWriter = 8, 300
	r := NewRecorder(256) // small enough to wrap mid-run
	defer SetRecorder(SetRecorder(r))
	r.BeginRun("k-Shape", 100, 3, 1000)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.AddActiveWorkers(1)
				r.RecordChunk(worker, i, i+1, r.NowNS(), 10)
				r.RecordPhaseSpan(Phase(i%int(numPhases)), int64(1000*(i+1)))
				r.AddWorkerSpan(worker, 1, 2, 10, 5, 15)
				r.RecordIteration(i + 1)
				r.PublishIteration(IterationStats{Iteration: i + 1, LabelChurn: perWriter - i, ClusterSizes: []int{40, 30, 30}})
				r.AddActiveWorkers(-1)
			}
		}(w)
	}
	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()

	lastSeq := int64(0)
	check := func() {
		rep := r.Report("obs_test", "", nil, Counters{})
		if err := rep.Validate(); err != nil {
			t.Fatalf("mid-run report invalid: %v", err)
		}
		if got := rep.Recorder.EventsRecorded - rep.Recorder.EventsEvicted; got != int64(len(rep.Events)) {
			t.Fatalf("recorded %d − evicted %d = %d, but the report holds %d events",
				rep.Recorder.EventsRecorded, rep.Recorder.EventsEvicted, got, len(rep.Events))
		}
		_, phases, _, _ := r.scrape()
		for _, h := range phases {
			var total int64
			for _, c := range h.Buckets {
				total += c
			}
			if total != h.Count {
				t.Fatalf("phase %s: bucket total %d != count %d", h.Name, total, h.Count)
			}
			if p50, p95, p99 := h.P50(), h.P95(), h.P99(); p50 > p95 || p95 > p99 {
				t.Fatalf("phase %s: quantiles not monotone: p50=%g p95=%g p99=%g", h.Name, p50, p95, p99)
			}
		}
		snap, ok := r.Progress()
		if !ok || snap.Seq < lastSeq {
			t.Fatalf("progress ok=%v seq %d after %d", ok, snap.Seq, lastSeq)
		}
		lastSeq = snap.Seq
		var sb strings.Builder
		if err := WritePrometheus(&sb); err != nil {
			t.Fatalf("scrape: %v", err)
		}
	}
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		check()
	}

	rep := r.Report("obs_test", "", nil, Counters{})
	const total = writers * perWriter
	if rep.Recorder.EventsRecorded != 4*total || len(rep.Events) != 256 {
		t.Errorf("recorded %d events keeping %d, want %d keeping 256", rep.Recorder.EventsRecorded, len(rep.Events), 4*total)
	}
	for p, ph := range rep.Phases {
		want := int64(0)
		for i := 0; i < perWriter; i++ {
			if i%int(numPhases) == p {
				want += writers
			}
		}
		if ph.Count != want {
			t.Errorf("phase %s counted %d spans, want %d", ph.Name, ph.Count, want)
		}
	}
	if len(rep.Workers) != writers {
		t.Fatalf("%d worker rows, want %d", len(rep.Workers), writers)
	}
	for _, w := range rep.Workers {
		if w.Chunks != perWriter || w.Items != 2*perWriter || w.WallNS != 15*perWriter {
			t.Errorf("worker %d totals %+v, want %d chunks, %d items, %d ns wall", w.Worker, w, perWriter, 2*perWriter, 15*perWriter)
		}
	}
	if active, _, snap, _ := r.scrape(); active != 0 || snap.Seq != 1+total {
		t.Errorf("active workers %d, progress seq %d; want 0 and %d", active, snap.Seq, 1+total)
	}
	if history, _ := r.History(); len(history) != min(total, maxProgressHistory) {
		t.Errorf("history holds %d iterations, want %d", len(history), min(total, maxProgressHistory))
	}
}

func TestSamplerTakesStartAndStopSamples(t *testing.T) {
	r := NewRecorder(16)
	stop := r.StartSampler(time.Hour) // interval never fires in-test
	stop()
	rep := r.Report("obs_test", "", nil, Counters{})
	samples, dropped := rep.RuntimeSamples, rep.Recorder.SamplesDropped
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
	samples := r.Report("obs_test", "", nil, Counters{}).RuntimeSamples
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
	if got := len(r.orderedEvents()); got != 4 {
		t.Errorf("hooks on the active recorder recorded %d events, want 4", got)
	}
	// With no recorder installed the hooks run on nil and must be no-ops,
	// not panics.
	rec = ActiveRecorder()
	rec.RecordMark("dropped")
	rec.RecordIteration(2)
	rec.RecordPhaseSpan(PhaseAssign, 10)
	if got := len(r.orderedEvents()); got != 4 {
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
	evs := r.orderedEvents()
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
