package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the recorder's live-progress state: the engine's
// IterationStats stream becomes (1) an atomically published Progress
// snapshot that every live reader — the TTY line, /metrics and the
// /progress Server-Sent-Events stream — polls without locks, and (2) a
// bounded iteration history the dashboard renders after the run. The
// hooks (BeginRun, PublishIteration, EndRun) are no-ops on a nil
// recorder. Publication is observation only — it never feeds back into
// the clustering, so results are bit-identical with a recorder armed or
// not.

// Progress phase names.
const (
	// ProgressPhaseInit is published by BeginRun, before iteration 1.
	ProgressPhaseInit = "initializing"
	// ProgressPhaseIterating is published once per completed iteration.
	ProgressPhaseIterating = "iterating"
	// ProgressPhaseDone is published by EndRun.
	ProgressPhaseDone = "done"
)

// Progress is one immutable snapshot of a clustering run's state. The
// recorder stores a fresh value per event; readers get a consistent
// view from a single atomic load (the slices are never mutated after
// publication).
type Progress struct {
	// Seq increases by one per published snapshot, so pollers can detect
	// missed updates.
	Seq int64 `json:"seq"`
	// Method is the algorithm name ("k-Shape", "k-AVG+ED", ...), empty
	// until BeginRun.
	Method string `json:"method"`
	// Phase is one of the ProgressPhase* constants.
	Phase string `json:"phase"`
	// Series and K describe the run's shape: number of time series and
	// requested clusters.
	Series int `json:"series"`
	K      int `json:"k"`
	// Iteration is the last completed iteration (0 before the first);
	// MaxIterations is the configured cap.
	Iteration     int `json:"iteration"`
	MaxIterations int `json:"max_iterations"`
	// Inertia, InertiaDelta, LabelChurn, ClusterSizes, CentroidDrift and
	// SilhouetteSample mirror the latest IterationStats.
	Inertia          float64   `json:"inertia"`
	InertiaDelta     float64   `json:"inertia_delta"`
	LabelChurn       int       `json:"label_churn"`
	ClusterSizes     []int     `json:"cluster_sizes,omitempty"`
	CentroidDrift    []float64 `json:"centroid_drift,omitempty"`
	DriftMax         float64   `json:"drift_max"`
	SilhouetteSample float64   `json:"silhouette_sample"`
	// Converged is set by EndRun.
	Converged bool `json:"converged"`
	// Stalled, Oscillating and ETAIterations are the convergence
	// diagnostics (see Diagnose); ETAIterations is -1 when unknown.
	Stalled       bool `json:"stalled"`
	Oscillating   bool `json:"oscillating"`
	ETAIterations int  `json:"eta_iterations"`
	// UpdatedNS is the recorder-clock offset (monotonic nanoseconds
	// since NewRecorder) at publication time.
	UpdatedNS int64 `json:"updated_ns"`
}

// maxProgressHistory bounds the retained iteration history. Runs beyond
// the cap keep the newest entries; HistoryDropped counts the evictions.
const maxProgressHistory = 1 << 12

// progressState is the live-progress part of a Recorder. The snapshot is
// published atomically; everything else is guarded by mu.
type progressState struct {
	snap atomic.Pointer[Progress]
	seq  atomic.Int64

	mu      sync.Mutex
	history []IterationStats
	dropped int64
	method  string
	series  int
	k       int
	maxIter int
}

// BeginRun resets the live progress for a new run and publishes an
// initializing snapshot. A recorder spans sequential runs (restarts,
// benchmark sweeps); the history always describes the latest. It is a
// no-op on a nil recorder.
func (r *Recorder) BeginRun(method string, series, k, maxIterations int) {
	if r == nil {
		return
	}
	p := &r.progress
	p.mu.Lock()
	p.method, p.series, p.k, p.maxIter = method, series, k, maxIterations
	p.history = p.history[:0]
	p.dropped = 0
	p.mu.Unlock()
	r.publish(Progress{
		Method: method, Phase: ProgressPhaseInit,
		Series: series, K: k, MaxIterations: maxIterations,
		ETAIterations: -1,
	})
}

// PublishIteration folds one completed iteration into the history and
// publishes the updated snapshot. It is a no-op on a nil recorder.
func (r *Recorder) PublishIteration(st IterationStats) {
	if r == nil {
		return
	}
	p := &r.progress
	p.mu.Lock()
	if len(p.history) >= maxProgressHistory {
		copy(p.history, p.history[1:])
		p.history = p.history[:maxProgressHistory-1]
		p.dropped++
	}
	p.history = append(p.history, st)
	// Diagnose reads only the newest oscillationWindow churn values, so
	// the history's tail stands in for the run's full churn sequence.
	var churn [oscillationWindow]int
	tail := p.history[max(len(p.history)-oscillationWindow, 0):]
	for t, h := range tail {
		churn[t] = h.LabelChurn
	}
	diag := Diagnose(churn[:len(tail)])
	next := Progress{
		Method: p.method, Phase: ProgressPhaseIterating,
		Series: p.series, K: p.k,
		Iteration: st.Iteration, MaxIterations: p.maxIter,
		Inertia: st.Inertia, InertiaDelta: st.InertiaDelta,
		LabelChurn:       st.LabelChurn,
		ClusterSizes:     append([]int(nil), st.ClusterSizes...),
		CentroidDrift:    append([]float64(nil), st.CentroidDrift...),
		DriftMax:         st.DriftMax(),
		SilhouetteSample: st.SilhouetteSample,
		Stalled:          diag.Stalled, Oscillating: diag.Oscillating,
		ETAIterations: diag.ETAIterations,
	}
	p.mu.Unlock()
	r.publish(next)
}

// EndRun publishes the terminal snapshot, carrying the last iteration's
// metrics forward with the done phase and the convergence flag. It is a
// no-op on a nil recorder.
func (r *Recorder) EndRun(converged bool) {
	if r == nil {
		return
	}
	p := &r.progress
	p.mu.Lock()
	next := Progress{Method: p.method, Phase: ProgressPhaseDone, ETAIterations: -1}
	p.mu.Unlock()
	if cur := p.snap.Load(); cur != nil {
		next = *cur
		next.Phase = ProgressPhaseDone
	}
	next.Converged = converged
	if converged {
		next.ETAIterations = 0
	}
	r.publish(next)
}

// publish stamps and stores one snapshot. Each call stores a fresh
// pointer, so a reader that remembers the last pointer it saw detects any
// newer snapshot by comparison alone.
func (r *Recorder) publish(next Progress) {
	p := &r.progress
	next.Seq = p.seq.Add(1)
	next.UpdatedNS = r.NowNS()
	p.snap.Store(&next)
}

// Progress returns the latest published snapshot; ok is false before the
// first publication and on a nil recorder. The call is a single atomic
// load plus a copy.
func (r *Recorder) Progress() (snap Progress, ok bool) {
	if r == nil {
		return Progress{}, false
	}
	if cur := r.progress.snap.Load(); cur != nil {
		return *cur, true
	}
	return Progress{}, false
}

// History returns a copy of the retained iteration history (oldest
// first) and how many early iterations were evicted past the cap.
func (r *Recorder) History() (stats []IterationStats, dropped int64) {
	p := &r.progress
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]IterationStats, len(p.history))
	copy(out, p.history)
	return out, p.dropped
}

// DefaultProgressHeartbeat is the SSE comment-ping interval when no
// snapshot was sent; it keeps idle connections alive through proxies.
const DefaultProgressHeartbeat = 15 * time.Second

// progressPollInterval is how often a /progress stream reads the active
// recorder's snapshot: one atomic load, so cheap enough to poll often
// enough that a run of a few tens of milliseconds still shows progress.
const progressPollInterval = 10 * time.Millisecond

// ProgressHandler returns the /progress Server-Sent-Events handler. Each
// connection polls the active recorder's snapshot every
// progressPollInterval and sends it as a `data:` event (JSON, the Progress
// schema) whenever it changed since the last one sent. A stream therefore
// carries at most one snapshot per poll, Seq gaps count the ones it
// skipped, and it always catches up to the newest, so a finished run's
// done snapshot is sent unless a newer run replaced it within one poll.
// The first poll replays the current snapshot on connect, and comment
// heartbeats go out while nothing was sent. The stream follows whichever
// recorder is active, so a connection opened before a run starts picks
// up the one SetRecorder installs within one poll.
func ProgressHandler() http.Handler { return progressHandler(DefaultProgressHeartbeat) }

// progressHandler is ProgressHandler with the heartbeat interval
// exposed for tests.
func progressHandler(heartbeat time.Duration) http.Handler {
	if heartbeat <= 0 {
		heartbeat = DefaultProgressHeartbeat
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-store")
		h.Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)
		fl.Flush() // the client sees the stream open before any snapshot exists

		ticker := time.NewTicker(progressPollInterval)
		defer ticker.Stop()
		var last *Progress
		lastWrite := time.Now()
		for {
			var frame []byte
			if cur := ActiveRecorder(); cur != nil {
				if snap := cur.progress.snap.Load(); snap != nil && snap != last {
					data, err := json.Marshal(snap)
					if err != nil {
						return
					}
					frame = append(append([]byte("data: "), data...), '\n', '\n')
					last = snap
				}
			}
			if frame == nil && time.Since(lastWrite) >= heartbeat {
				frame = []byte(": heartbeat\n\n")
			}
			if frame != nil {
				if _, err := w.Write(frame); err != nil {
					return
				}
				fl.Flush()
				lastWrite = time.Now()
			}
			select {
			case <-r.Context().Done():
				return
			case <-ticker.C:
			}
		}
	})
}
