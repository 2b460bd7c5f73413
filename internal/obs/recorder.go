package obs

import (
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the flight recorder, the single telemetry record of
// a run: a bounded, lock-free ring of timestamped events (phase
// enter/exit spans, iteration boundaries, per-worker chunk spans,
// free-form marks), one latency histogram per instrumented phase, the
// active-workers gauge, the live progress (progress.go), a background
// runtime sampler (heap in use, cumulative allocations, GC pause totals,
// goroutine count) and a per-worker attribution table fed by
// internal/par. Together they answer the question the aggregate counters
// cannot: *where inside the run* the time went — which worker, which
// phase, and whether the pool was busy or waiting.
//
// One recorder is active per process at a time (SetRecorder). Every
// engine hook loads it once through ActiveRecorder and calls the hook
// method on the result; those methods are no-ops on a nil *Recorder, so a
// process without a recorder pays one atomic pointer load per hook,
// mirroring the Enabled() contract of the counters. Event slots are
// claimed with one atomic add and published with one atomic pointer
// store, so recording never locks and two writers lapping each other on
// the ring (overwrite-oldest) never race; the ring keeps the most recent
// events and counts evictions. Read the events at quiescence (after the
// run finishes) — Report is the sanctioned reader — since only then is the
// retained window a consistent prefix-free tail.

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

// maxRecorderWorkers bounds the per-worker attribution table. Worker IDs
// at or above the bound fold into the last slot (and are counted), so a
// misconfigured pool cannot index out of bounds.
const maxRecorderWorkers = 256

// workerAccum aggregates one pool worker's lifetime totals. All fields are
// atomically updated; padding keeps concurrent workers off each other's
// cache lines.
type workerAccum struct {
	chunks atomic.Int64
	items  atomic.Int64
	busyNS atomic.Int64
	waitNS atomic.Int64
	wallNS atomic.Int64
	_      [24]byte
}

// Recorder is the per-run flight recorder. Create one with NewRecorder,
// install it with SetRecorder, and read it back with Report after the run.
// Recording methods are safe for concurrent use; Events and Report must
// only be called when no writers are active.
type Recorder struct {
	start    Stopwatch
	slots    []atomic.Pointer[Event]
	mask     int64
	next     atomic.Int64
	workers  [maxRecorderWorkers]workerAccum
	overflow atomic.Int64 // worker IDs folded into the last slot

	phases        [numPhases]Histogram // one latency histogram per Phase
	activeWorkers atomic.Int64         // pool goroutines running now
	progress      progressState        // live progress (progress.go)

	samples struct {
		sync.Mutex
		s       []RuntimeSample
		dropped int64
	}
	sampleInterval time.Duration
	samplerStop    chan struct{}
	samplerDone    chan struct{}
}

// Recorder sizing defaults.
const (
	// DefaultEventCapacity is the ring size NewRecorder(0) allocates.
	DefaultEventCapacity = 1 << 13
	// maxRuntimeSamples bounds the sampler's memory; later samples are
	// dropped (and counted) rather than growing without bound.
	maxRuntimeSamples = 1 << 12
	// DefaultSampleInterval is the sampler period StartSampler(0) uses.
	DefaultSampleInterval = 20 * time.Millisecond
)

// NewRecorder builds a recorder whose event ring holds at least capacity
// events (rounded up to a power of two); capacity <= 0 means
// DefaultEventCapacity. The recorder's clock starts at the moment of the
// call.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Recorder{
		start: NewStopwatch(),
		slots: make([]atomic.Pointer[Event], size),
		mask:  int64(size - 1),
	}
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

// record claims the next ring slot and publishes ev into it with an
// atomic pointer store (one small allocation per event — events fire per
// chunk/phase/iteration, not per item, so this is off the hot path). When
// the ring is full the oldest event is overwritten; Evicted reports how
// many.
func (r *Recorder) record(ev Event) {
	i := r.next.Add(1) - 1
	r.slots[i&r.mask].Store(&ev)
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
	if durNS < 0 {
		durNS = 0
	}
	r.phases[p].Observe(durNS)
	at := r.NowNS() - durNS
	if at < 0 {
		at = 0
	}
	r.record(Event{AtNS: at, Kind: EventPhaseEnter, Phase: p, Worker: -1})
	r.record(Event{AtNS: at + durNS, DurNS: durNS, Kind: EventPhaseExit, Phase: p, Worker: -1})
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
		Worker: int32(clampWorker(worker)), Lo: int32(lo), Hi: int32(hi),
	})
}

// AddWorkerSpan folds one pool invocation's per-worker totals into the
// lifetime attribution table: chunks executed, items covered, time spent
// inside chunk bodies (busy), time spent waiting for work or on pool
// startup/teardown (wait), and the worker's wall time for the invocation
// (busy + wait, by construction).
func (r *Recorder) AddWorkerSpan(worker int, chunks, items, busyNS, waitNS, wallNS int64) {
	w := clampWorker(worker)
	if w != worker {
		r.overflow.Add(1)
	}
	acc := &r.workers[w]
	acc.chunks.Add(chunks)
	acc.items.Add(items)
	acc.busyNS.Add(busyNS)
	acc.waitNS.Add(waitNS)
	acc.wallNS.Add(wallNS)
}

// AddActiveWorkers moves the count of pool goroutines running now by
// delta; the pool adds its size on entry and subtracts it on exit.
func (r *Recorder) AddActiveWorkers(delta int64) { r.activeWorkers.Add(delta) }

// activeWorkerCount reads the running-goroutine gauge; zero on a nil
// recorder.
func (r *Recorder) activeWorkerCount() int64 {
	if r == nil {
		return 0
	}
	return r.activeWorkers.Load()
}

func clampWorker(w int) int {
	if w < 0 {
		return 0
	}
	if w >= maxRecorderWorkers {
		return maxRecorderWorkers - 1
	}
	return w
}

// Events returns the retained events in append order (oldest first). Call
// at quiescence for a consistent window: racing writers cannot tear a
// slot (stores are atomic), but a claimed-not-yet-published slot reads as
// its previous occupant.
func (r *Recorder) Events() []Event {
	total := r.next.Load()
	size := int64(len(r.slots))
	appendSlot := func(out []Event, i int64) []Event {
		if p := r.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
		return out
	}
	if total <= size {
		out := make([]Event, 0, total)
		for i := int64(0); i < total; i++ {
			out = appendSlot(out, i)
		}
		return out
	}
	out := make([]Event, 0, size)
	head := total & r.mask // oldest retained slot
	for i := head; i < size; i++ {
		out = appendSlot(out, i)
	}
	for i := int64(0); i < head; i++ {
		out = appendSlot(out, i)
	}
	return out
}

// Evicted reports how many events the ring has overwritten.
func (r *Recorder) Evicted() int64 {
	total := r.next.Load()
	if size := int64(len(r.slots)); total > size {
		return total - size
	}
	return 0
}

// StartSampler launches the background runtime sampler at the given
// interval (<= 0 means DefaultSampleInterval) and returns the function
// that stops it (idempotent is not required; call exactly once). One
// sample is taken immediately and one at stop, so even sub-interval runs
// report at least two samples. The sampler goroutine touches no
// clustering state — it only reads runtime statistics — so determinism of
// the computation is unaffected.
func (r *Recorder) StartSampler(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	r.sampleInterval = interval
	r.samplerStop = make(chan struct{})
	r.samplerDone = make(chan struct{})
	r.sample()
	//lint:ignore goroutine runtime-stats sampler lifetime, not data-path fan-out
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		defer close(r.samplerDone)
		for {
			select {
			case <-t.C:
				r.sample()
			case <-r.samplerStop:
				return
			}
		}
	}()
	return func() {
		close(r.samplerStop)
		<-r.samplerDone
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
	r.samples.Lock()
	if len(r.samples.s) < maxRuntimeSamples {
		r.samples.s = append(r.samples.s, s)
	} else {
		r.samples.dropped++
	}
	r.samples.Unlock()
}

// Samples returns a copy of the runtime samples taken so far and the
// number dropped past the cap.
func (r *Recorder) Samples() (samples []RuntimeSample, dropped int64) {
	r.samples.Lock()
	defer r.samples.Unlock()
	out := make([]RuntimeSample, len(r.samples.s))
	copy(out, r.samples.s)
	return out, r.samples.dropped
}
