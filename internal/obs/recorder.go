package obs

import (
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the flight recorder, the single telemetry record of
// a run: a bounded ring of timestamped events (phase enter/exit spans,
// iteration boundaries, per-worker chunk spans, free-form marks), one
// latency histogram per instrumented phase, the active-workers gauge, the
// live progress (progress.go), a background runtime sampler (heap in use,
// cumulative allocations, GC pause totals, goroutine count), the
// experiment sweeps' per-run records and a per-worker attribution table
// fed by internal/par. Together they answer the question the aggregate
// counters cannot: *where inside the run* the time went — which worker,
// which phase, and whether the pool was busy or waiting.
//
// One recorder is active per process at a time (SetRecorder). Every
// engine hook loads it once through ActiveRecorder and calls the hook
// method on the result; those methods are no-ops on a nil *Recorder, so a
// process without a recorder pays one atomic pointer load per hook,
// mirroring the Enabled() contract of the counters. One mutex guards all
// of a recorder's state. Events fire per chunk, phase and iteration, not
// per item (a few hundred per clustering run), so the lock is rarely
// contended, and every reader (Report, Progress, History, /metrics) sees
// a consistent state whether or not the run has finished.

// EventKind discriminates the flight-recorder event types.
type EventKind uint8

// The event kinds.
const (
	// EventPhaseEnter marks the start of an instrumented phase span.
	EventPhaseEnter EventKind = iota
	// EventPhaseExit marks the end of an instrumented phase span; DurNS
	// carries the span length.
	EventPhaseExit
	// EventIteration marks a refinement-iteration boundary; Iter is the
	// 1-based iteration that just completed.
	EventIteration
	// EventChunk is one contiguous chunk of parallel work executed by one
	// pool worker: Worker, Lo/Hi (the index range), AtNS/DurNS (the span).
	EventChunk
	// EventMark is a free-form annotation (method dispatch, dataset
	// boundary) carrying Label.
	EventMark
)

var eventKindNames = [...]string{
	"phase_enter", "phase_exit", "iteration", "chunk", "mark",
}

// String returns the snake_case kind name used in the run report.
func (k EventKind) String() string {
	if int(k) >= len(eventKindNames) {
		return "unknown"
	}
	return eventKindNames[k]
}

// Event is one flight-recorder record. AtNS is the offset from the
// recorder's start on the monotonic clock; DurNS is nonzero for spans.
type Event struct {
	AtNS   int64
	DurNS  int64
	Kind   EventKind
	Phase  Phase // phase enter/exit and chunk events
	Worker int32 // chunk events; -1 elsewhere
	Lo, Hi int32 // chunk index range [Lo, Hi)
	Iter   int32 // iteration events
	Label  string
}

// Recorder is the per-run flight recorder. Create one with NewRecorder,
// install it with SetRecorder, and read it back with Report. Every method
// is safe for concurrent use.
type Recorder struct {
	start Stopwatch // immutable after NewRecorder

	mu       sync.Mutex
	events   []Event // the ring: grows to eventCap, then wraps
	eventCap int
	recorded int64         // events ever recorded; once full, the oldest is at recorded % eventCap
	workers  []WorkerStats // indexed by pool worker ID

	phases        [numPhases]Histogram // one latency histogram per Phase
	activeWorkers int64                // pool goroutines running now
	progress      progressState        // live progress (progress.go)

	samples        []RuntimeSample
	samplesDropped int64
	sampleInterval time.Duration
	runs           []RunRecord // experiment unit-of-work records (RecordRun)
}

// Recorder sizing defaults.
const (
	// DefaultEventCapacity is the ring size NewRecorder(0) allows.
	DefaultEventCapacity = 1 << 13
	// maxRuntimeSamples bounds the sampler's memory; later samples are
	// dropped (and counted) rather than growing without bound.
	maxRuntimeSamples = 1 << 12
	// DefaultSampleInterval is the sampler period StartSampler(0) uses.
	DefaultSampleInterval = 20 * time.Millisecond
)

// NewRecorder builds a recorder whose event ring holds the newest
// capacity events; capacity <= 0 means DefaultEventCapacity. The ring
// grows as events arrive, so a short run never allocates the full
// capacity. The recorder's clock starts at the moment of the call.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &Recorder{start: NewStopwatch(), eventCap: capacity}
}

// activeRecorder is the process-global recorder the instrumented call
// sites consult; nil means flight recording is off and each site costs
// one atomic pointer load.
var activeRecorder atomic.Pointer[Recorder]

// SetRecorder installs r (nil uninstalls) and returns the previously
// active recorder.
func SetRecorder(r *Recorder) (previous *Recorder) {
	return activeRecorder.Swap(r)
}

// ActiveRecorder returns the installed recorder, or nil.
func ActiveRecorder() *Recorder { return activeRecorder.Load() }

// NowNS returns the recorder-clock offset (monotonic nanoseconds since
// NewRecorder).
func (r *Recorder) NowNS() int64 { return r.start.ElapsedNS() }

// push appends ev to the ring, overwriting the oldest event once the ring
// is full. The caller holds r.mu.
func (r *Recorder) push(ev Event) {
	if len(r.events) < r.eventCap {
		r.events = append(r.events, ev)
	} else {
		r.events[r.recorded%int64(r.eventCap)] = ev
	}
	r.recorded++
}

// RecordPhaseSpan records a phase span that ended at the moment of the
// call (enter at now-durNS, exit at now) — the shape the engine loops
// produce, where the duration is measured with a Stopwatch and reported
// when the phase body finishes — and adds its duration to the phase's
// latency histogram. It is a no-op on a nil recorder.
func (r *Recorder) RecordPhaseSpan(p Phase, durNS int64) {
	if r == nil {
		return
	}
	durNS = max(durNS, 0)
	at := max(r.NowNS()-durNS, 0)
	r.mu.Lock()
	r.phases[p].Observe(durNS)
	r.push(Event{AtNS: at, Kind: EventPhaseEnter, Phase: p, Worker: -1})
	r.push(Event{AtNS: at + durNS, DurNS: durNS, Kind: EventPhaseExit, Phase: p, Worker: -1})
	r.mu.Unlock()
}

// RecordIteration marks a completed refinement iteration (1-based). It is
// a no-op on a nil recorder.
func (r *Recorder) RecordIteration(iter int) {
	if r == nil {
		return
	}
	r.record(Event{AtNS: r.NowNS(), Kind: EventIteration, Iter: int32(iter), Worker: -1})
}

// RecordMark records a free-form annotation event. It is a no-op on a nil
// recorder.
func (r *Recorder) RecordMark(label string) {
	if r == nil {
		return
	}
	r.record(Event{AtNS: r.NowNS(), Kind: EventMark, Label: label, Worker: -1})
}

// RecordChunk records one executed chunk of pool work: worker is the pool
// worker ID, [lo, hi) the index range, startNS the recorder-clock offset
// the chunk began at, and durNS its execution time.
func (r *Recorder) RecordChunk(worker, lo, hi int, startNS, durNS int64) {
	r.record(Event{
		AtNS: startNS, DurNS: durNS, Kind: EventChunk,
		Worker: int32(worker), Lo: int32(lo), Hi: int32(hi),
	})
}

// record pushes one event under r.mu.
func (r *Recorder) record(ev Event) {
	r.mu.Lock()
	r.push(ev)
	r.mu.Unlock()
}

// AddWorkerSpan folds one pool invocation's per-worker totals into the
// lifetime attribution table: chunks executed, items covered, time spent
// inside chunk bodies (busy), time spent waiting for work or on pool
// startup/teardown (wait), and the worker's wall time for the invocation
// (busy + wait, by construction). worker is the pool worker ID (>= 0);
// the table grows to the highest ID reported.
func (r *Recorder) AddWorkerSpan(worker int, chunks, items, busyNS, waitNS, wallNS int64) {
	r.mu.Lock()
	for len(r.workers) <= worker {
		r.workers = append(r.workers, WorkerStats{Worker: len(r.workers)})
	}
	w := &r.workers[worker]
	w.Chunks += chunks
	w.Items += items
	w.BusyNS += busyNS
	w.WaitNS += waitNS
	w.WallNS += wallNS
	r.mu.Unlock()
}

// AddActiveWorkers moves the count of pool goroutines running now by
// delta; the pool adds its size on entry and subtracts it on exit.
func (r *Recorder) AddActiveWorkers(delta int64) {
	r.mu.Lock()
	r.activeWorkers += delta
	r.mu.Unlock()
}

// orderedEvents returns a copy of the retained events in append order
// (oldest first). The caller holds r.mu. Until the ring is full, head is
// len(r.events), so the first part is empty.
func (r *Recorder) orderedEvents() []Event {
	head := int(r.recorded % int64(r.eventCap))
	return append(append(make([]Event, 0, len(r.events)), r.events[head:]...), r.events[:head]...)
}

// StartSampler launches the background runtime sampler at the given
// interval (<= 0 means DefaultSampleInterval) and returns the function
// that stops it (call it exactly once). One sample is taken immediately
// and one at stop, so even sub-interval runs report at least two samples.
// The sampler goroutine touches no clustering state — it only reads
// runtime statistics — so determinism of the computation is unaffected.
func (r *Recorder) StartSampler(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	r.mu.Lock()
	r.sampleInterval = interval
	r.mu.Unlock()
	quit, done := make(chan struct{}), make(chan struct{})
	r.sample()
	//lint:ignore goroutine runtime-stats sampler lifetime, not data-path fan-out
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		defer close(done)
		for {
			select {
			case <-t.C:
				r.sample()
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		r.sample()
	}
}

// sampleMetrics are the runtime/metrics values behind a RuntimeSample, in
// the order sample reads them. runtime.ReadMemStats reports the same
// quantities, and also counts the allocations still sitting in per-P
// caches, but it stops the world and flushes every P's allocation cache
// on each call, which at the sampler's rate slows allocation-heavy runs by
// several percent; runtime/metrics and debug.ReadGCStats do neither.
var sampleMetrics = [...]string{
	"/memory/classes/heap/objects:bytes", // MemStats.HeapAlloc
	"/memory/classes/heap/unused:bytes",  // MemStats.HeapInuse - HeapAlloc
	"/gc/heap/allocs:bytes",              // MemStats.TotalAlloc
	"/gc/heap/allocs:objects",            // MemStats.Mallocs, less tiny ones
	"/gc/heap/tiny/allocs:objects",
	"/sched/goroutines:goroutines",
}

// sample appends one runtime sample, dropping (and counting) past the cap.
func (r *Recorder) sample() {
	var ms [len(sampleMetrics)]metrics.Sample
	for i, name := range sampleMetrics {
		ms[i].Name = name
	}
	metrics.Read(ms[:])
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	v := func(i int) uint64 { return ms[i].Value.Uint64() }
	s := RuntimeSample{
		AtNS:            r.NowNS(),
		HeapInuseBytes:  v(0) + v(1),
		HeapAllocBytes:  v(0),
		TotalAllocBytes: v(2),
		Mallocs:         v(3) + v(4),
		GCPauseTotalNS:  uint64(gc.PauseTotal),
		NumGC:           uint32(gc.NumGC),
		Goroutines:      int(v(5)),
	}
	r.mu.Lock()
	if len(r.samples) < maxRuntimeSamples {
		r.samples = append(r.samples, s)
	} else {
		r.samplesDropped++
	}
	r.mu.Unlock()
}
