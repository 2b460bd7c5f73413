package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// RunReportSchema identifies the self-contained JSON run report the
// flight recorder emits (`kshape -report`, `kbench -report`,
// `knn -report`). Bump on any incompatible shape change.
const RunReportSchema = "kshape.runreport/v1"

// RunReport is the top-level run-report document: everything needed to
// diagnose one recorder's run after the fact — build identity, kernel
// counters, phase latency histograms, per-worker pool attribution,
// runtime samples, the retained event window, and (for experiment
// sweeps) one record per unit of work.
type RunReport struct {
	Schema string `json:"schema"`
	// Tool and Args identify the invocation.
	Tool string   `json:"tool"`
	Args []string `json:"args,omitempty"`
	// RunID correlates the report with the invocation's log records.
	RunID string `json:"run_id,omitempty"`
	// Build carries version/revision/modified/go from BuildInfo.
	Build map[string]string `json:"build"`
	// WallNS is the recorder's lifetime (start to Report) on the
	// monotonic clock.
	WallNS int64 `json:"wall_ns"`
	// Counters is the kernel-counter delta over the recorded window.
	Counters Counters `json:"counters"`
	// Phases summarizes the recorder's per-phase latency histograms:
	// only the spans recorded since NewRecorder.
	Phases []PhaseStats `json:"phases"`
	// Workers is the per-worker pool attribution table (one row per pool
	// worker ID that executed work).
	Workers []WorkerStats `json:"workers"`
	// Pool holds the derived pool-level efficiency metrics (nil when no
	// parallel work ran).
	Pool *PoolStats `json:"pool,omitempty"`
	// Runs holds the per-(method, dataset, restart) records of an
	// experiment sweep, in completion order (absent when none ran).
	Runs []RunRecord `json:"runs,omitempty"`
	// RuntimeSamples is the background sampler's trajectory.
	RuntimeSamples []RuntimeSample `json:"runtime_samples"`
	// Events is the retained flight-recorder event window, oldest first.
	Events []ReportEvent `json:"events,omitempty"`
	// Recorder describes the recorder itself: capacities, retention, and
	// loss counters, so a truncated report is recognizable as such.
	Recorder RecorderStats `json:"recorder"`
}

// RunRecord is one measured unit of experiment work: a clustering run or a
// 1-NN classification pass of one method over one dataset.
type RunRecord struct {
	// Method is the algorithm or distance-measure name.
	Method string `json:"method"`
	// Dataset names the archive dataset the run executed on.
	Dataset string `json:"dataset,omitempty"`
	// Run is the restart index for randomized methods (0-based).
	Run int `json:"run"`
	// Seconds is the run's wall time.
	Seconds float64 `json:"seconds"`
	// Score is the quality metric of the run and ScoreKind its
	// interpretation: ScoreRandIndex for clustering, ScoreAccuracy1NN for
	// distance evaluation.
	Score     float64 `json:"score"`
	ScoreKind string  `json:"score_kind"`
	// Iterations and Converged describe the refinement loop (clustering
	// runs only).
	Iterations int  `json:"iterations,omitempty"`
	Converged  bool `json:"converged,omitempty"`
	// Counters is the kernel-counter delta accrued by this run. It is set
	// only when the sweep ran one unit at a time, so that the global
	// delta belongs to this run alone.
	Counters *Counters `json:"counters,omitempty"`
	// Trajectory is the per-iteration convergence data (clustering runs
	// with an iterative engine only).
	Trajectory []IterationStats `json:"trajectory,omitempty"`
}

// The RunRecord.ScoreKind values.
const (
	ScoreRandIndex   = "rand_index"
	ScoreAccuracy1NN = "accuracy_1nn"
)

// RecordRun appends one unit-of-work record to the run report. It is safe
// for concurrent use and a no-op on a nil recorder.
func (r *Recorder) RecordRun(rec RunRecord) {
	if r == nil {
		return
	}
	r.runs.Lock()
	r.runs.r = append(r.runs.r, rec)
	r.runs.Unlock()
}

// runRecords returns a copy of the recorded runs.
func (r *Recorder) runRecords() []RunRecord {
	r.runs.Lock()
	defer r.runs.Unlock()
	return append([]RunRecord(nil), r.runs.r...)
}

// PhaseStats summarizes one phase histogram.
type PhaseStats struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	SumNS int64   `json:"sum_ns"`
	P50NS float64 `json:"p50_ns"`
	P95NS float64 `json:"p95_ns"`
	P99NS float64 `json:"p99_ns"`
}

// WorkerStats is one pool worker's lifetime attribution: how many chunks
// and items it executed, and how its wall time split between chunk bodies
// (busy) and waiting for work (wait). BusyNS + WaitNS == WallNS by
// construction.
type WorkerStats struct {
	Worker int   `json:"worker"`
	Chunks int64 `json:"chunks"`
	Items  int64 `json:"items"`
	BusyNS int64 `json:"busy_ns"`
	WaitNS int64 `json:"wait_ns"`
	WallNS int64 `json:"wall_ns"`
}

// PoolStats are the derived pool-level numbers the parallel-layer rework
// is judged by: efficiency (aggregate busy over aggregate wall — 1.0
// means no worker ever waited) and imbalance (max over min per-worker
// busy time — 1.0 means perfectly even load).
type PoolStats struct {
	Workers    int     `json:"workers"`
	ChunksNS   int64   `json:"busy_ns_total"`
	WaitNS     int64   `json:"wait_ns_total"`
	WallNS     int64   `json:"wall_ns_total"`
	Efficiency float64 `json:"efficiency"`
	Imbalance  float64 `json:"imbalance"`
}

// RuntimeSample is one background-sampler reading of the Go runtime.
type RuntimeSample struct {
	AtNS            int64  `json:"at_ns"`
	HeapInuseBytes  uint64 `json:"heap_inuse_bytes"`
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
	GCPauseTotalNS  uint64 `json:"gc_pause_total_ns"`
	NumGC           uint32 `json:"num_gc"`
	Goroutines      int    `json:"goroutines"`
}

// ReportEvent is the JSON rendering of one flight-recorder event.
type ReportEvent struct {
	AtNS   int64  `json:"at_ns"`
	DurNS  int64  `json:"dur_ns,omitempty"`
	Kind   string `json:"kind"`
	Phase  string `json:"phase,omitempty"`
	Worker int    `json:"worker,omitempty"`
	Lo     int    `json:"lo,omitempty"`
	Hi     int    `json:"hi,omitempty"`
	Iter   int    `json:"iteration,omitempty"`
	Label  string `json:"label,omitempty"`
}

// RecorderStats describes the recorder's own state at report time.
type RecorderStats struct {
	EventCapacity    int   `json:"event_capacity"`
	EventsRecorded   int64 `json:"events_recorded"`
	EventsEvicted    int64 `json:"events_evicted"`
	Samples          int   `json:"samples"`
	SamplesDropped   int64 `json:"samples_dropped"`
	SampleIntervalMS int64 `json:"sample_interval_ms"`
	WorkerOverflow   int64 `json:"worker_overflow,omitempty"`
}

// Report assembles the run report at quiescence: call it after the
// measured work (and the sampler's stop function) has finished. counters
// should be the delta over the recorded window (ReadCounters().Sub of the
// snapshot taken when recording began).
func (r *Recorder) Report(tool, runID string, args []string, counters Counters) RunReport {
	samples, sampleDrops := r.Samples()
	rep := RunReport{
		Schema:         RunReportSchema,
		Tool:           tool,
		RunID:          runID,
		Args:           args,
		Build:          BuildInfo(),
		WallNS:         r.NowNS(),
		Counters:       counters,
		Phases:         phaseStats(r.phaseSnapshots()),
		Workers:        r.workerStats(),
		Runs:           r.runRecords(),
		RuntimeSamples: samples,
		Events:         reportEvents(r.Events()),
		Recorder: RecorderStats{
			EventCapacity:    len(r.slots),
			EventsRecorded:   r.next.Load(),
			EventsEvicted:    r.Evicted(),
			Samples:          len(samples),
			SamplesDropped:   sampleDrops,
			SampleIntervalMS: r.sampleInterval.Milliseconds(),
			WorkerOverflow:   r.overflow.Load(),
		},
	}
	rep.Pool = poolStats(rep.Workers)
	return rep
}

// phaseStats summarizes phase histogram snapshots.
func phaseStats(hs []HistogramSnapshot) []PhaseStats {
	out := make([]PhaseStats, len(hs))
	for i, h := range hs {
		out[i] = PhaseStats{
			Name: h.Name, Count: h.Count, SumNS: h.SumNS,
			P50NS: h.P50(), P95NS: h.P95(), P99NS: h.P99(),
		}
	}
	return out
}

// workerStats flattens the attribution table into one row per worker
// that executed at least one chunk or recorded wall time.
func (r *Recorder) workerStats() []WorkerStats {
	var out []WorkerStats
	for w := 0; w < maxRecorderWorkers; w++ {
		acc := &r.workers[w]
		ws := WorkerStats{
			Worker: w,
			Chunks: acc.chunks.Load(),
			Items:  acc.items.Load(),
			BusyNS: acc.busyNS.Load(),
			WaitNS: acc.waitNS.Load(),
			WallNS: acc.wallNS.Load(),
		}
		if ws.Chunks != 0 || ws.WallNS != 0 {
			out = append(out, ws)
		}
	}
	return out
}

// poolStats derives the aggregate pool metrics from the worker table.
func poolStats(workers []WorkerStats) *PoolStats {
	if len(workers) == 0 {
		return nil
	}
	p := &PoolStats{Workers: len(workers)}
	minBusy, maxBusy := int64(-1), int64(0)
	for _, w := range workers {
		p.ChunksNS += w.BusyNS
		p.WaitNS += w.WaitNS
		p.WallNS += w.WallNS
		if w.BusyNS > maxBusy {
			maxBusy = w.BusyNS
		}
		if minBusy < 0 || w.BusyNS < minBusy {
			minBusy = w.BusyNS
		}
	}
	if p.WallNS > 0 {
		p.Efficiency = float64(p.ChunksNS) / float64(p.WallNS)
	}
	if minBusy > 0 {
		p.Imbalance = float64(maxBusy) / float64(minBusy)
	}
	return p
}

// reportEvents renders ring events with symbolic kind and phase names.
func reportEvents(evs []Event) []ReportEvent {
	out := make([]ReportEvent, len(evs))
	for i, e := range evs {
		re := ReportEvent{
			AtNS: e.AtNS, DurNS: e.DurNS, Kind: e.Kind.String(),
			Worker: int(e.Worker), Label: e.Label,
		}
		switch e.Kind {
		case EventPhaseEnter, EventPhaseExit:
			re.Phase = e.Phase.String()
		case EventChunk:
			re.Lo, re.Hi = int(e.Lo), int(e.Hi)
		case EventIteration:
			re.Iter = int(e.Iter)
		}
		out[i] = re
	}
	return out
}

// WriteJSON writes the report as indented JSON with one checked write.
func (r RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Validate checks the invariants the runreport schema promises consumers;
// the golden harness and the CI smoke job assert it on real reports.
func (r *RunReport) Validate() error {
	if r.Schema != RunReportSchema {
		return fmt.Errorf("schema = %q, want %q", r.Schema, RunReportSchema)
	}
	if r.Tool == "" {
		return fmt.Errorf("missing tool")
	}
	if r.WallNS < 0 {
		return fmt.Errorf("negative wall_ns %d", r.WallNS)
	}
	for _, key := range []string{"version", "revision", "go"} {
		if r.Build[key] == "" {
			return fmt.Errorf("build metadata missing %q", key)
		}
	}
	if len(r.Phases) != int(numPhases) {
		return fmt.Errorf("got %d phase summaries, want %d", len(r.Phases), numPhases)
	}
	for i, p := range r.Phases {
		if p.Name != Phase(i).String() {
			return fmt.Errorf("phase %d named %q, want %q", i, p.Name, Phase(i))
		}
		if p.Count < 0 || p.SumNS < 0 {
			return fmt.Errorf("phase %q has negative totals", p.Name)
		}
	}
	for _, w := range r.Workers {
		if w.Worker < 0 || w.Worker >= maxRecorderWorkers {
			return fmt.Errorf("worker ID %d out of range", w.Worker)
		}
		if w.BusyNS < 0 || w.WaitNS < 0 || w.WallNS < 0 {
			return fmt.Errorf("worker %d has negative time totals", w.Worker)
		}
		if w.BusyNS+w.WaitNS != w.WallNS {
			return fmt.Errorf("worker %d: busy %d + wait %d != wall %d",
				w.Worker, w.BusyNS, w.WaitNS, w.WallNS)
		}
	}
	prev := int64(-1)
	for i, s := range r.RuntimeSamples {
		if s.AtNS < prev {
			return fmt.Errorf("runtime sample %d goes backward (%d after %d)", i, s.AtNS, prev)
		}
		prev = s.AtNS
	}
	for i, run := range r.Runs {
		if run.ScoreKind != ScoreRandIndex && run.ScoreKind != ScoreAccuracy1NN {
			return fmt.Errorf("run %d has score_kind %q", i, run.ScoreKind)
		}
		if run.Seconds < 0 {
			return fmt.Errorf("run %d has negative seconds %g", i, run.Seconds)
		}
		if len(run.Trajectory) > 0 && len(run.Trajectory) != run.Iterations {
			return fmt.Errorf("run %d: trajectory of %d entries for %d iterations",
				i, len(run.Trajectory), run.Iterations)
		}
	}
	if r.Recorder.EventCapacity <= 0 {
		return fmt.Errorf("recorder event capacity %d", r.Recorder.EventCapacity)
	}
	if n := int64(len(r.Events)); n > int64(r.Recorder.EventCapacity) {
		return fmt.Errorf("%d events exceed capacity %d", n, r.Recorder.EventCapacity)
	}
	return nil
}
