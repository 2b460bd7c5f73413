package obs

import (
	"encoding/json"
	"net/http"
	"time"
)

// This file implements the recorder's live-progress state: the engine's
// IterationStats stream becomes (1) the latest Progress snapshot, which
// every live reader — the TTY line, /metrics and the /progress
// Server-Sent-Events stream — copies out under the recorder's lock, and
// (2) a bounded iteration history the dashboard renders after the run.
// The hooks (BeginRun, PublishIteration, EndRun) are no-ops on a nil
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

// Progress is one snapshot of a clustering run's state. The recorder
// builds a fresh value per event and readers get a copy; its slices are
// never mutated after publication.
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

// progressState is the live-progress part of a Recorder, guarded by the
// recorder's mutex.
type progressState struct {
	snap    Progress // the latest snapshot; Seq is 0 before the first
	history []IterationStats
	dropped int64
}

// BeginRun resets the live progress for a new run and publishes an
// initializing snapshot. A recorder spans sequential runs (restarts,
// benchmark sweeps); the history always describes the latest. It is a
// no-op on a nil recorder.
func (r *Recorder) BeginRun(method string, series, k, maxIterations int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := &r.progress
	p.history = p.history[:0]
	p.dropped = 0
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
	r.mu.Lock()
	defer r.mu.Unlock()
	p := &r.progress
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
	cur := p.snap // the run identity BeginRun published
	r.publish(Progress{
		Method: cur.Method, Phase: ProgressPhaseIterating,
		Series: cur.Series, K: cur.K,
		Iteration: st.Iteration, MaxIterations: cur.MaxIterations,
		Inertia: st.Inertia, InertiaDelta: st.InertiaDelta,
		LabelChurn:       st.LabelChurn,
		ClusterSizes:     append([]int(nil), st.ClusterSizes...),
		CentroidDrift:    append([]float64(nil), st.CentroidDrift...),
		DriftMax:         st.DriftMax(),
		SilhouetteSample: st.SilhouetteSample,
		Stalled:          diag.Stalled, Oscillating: diag.Oscillating,
		ETAIterations: diag.ETAIterations,
	})
}

// EndRun publishes the terminal snapshot, carrying the last iteration's
// metrics forward with the done phase and the convergence flag. It is a
// no-op on a nil recorder.
func (r *Recorder) EndRun(converged bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.progress.snap
	next.Phase = ProgressPhaseDone
	next.Converged = converged
	if converged {
		next.ETAIterations = 0
	} else if next.Seq == 0 {
		next.ETAIterations = -1
	}
	r.publish(next)
}

// publish stamps next with the following sequence number and the
// recorder clock and makes it the latest snapshot. The caller holds r.mu.
func (r *Recorder) publish(next Progress) {
	next.Seq = r.progress.snap.Seq + 1
	next.UpdatedNS = r.NowNS()
	r.progress.snap = next
}

// Progress returns a copy of the latest published snapshot; ok is false
// before the first publication and on a nil recorder.
func (r *Recorder) Progress() (snap Progress, ok bool) {
	if r == nil {
		return Progress{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.progress.snap, r.progress.snap.Seq > 0
}

// History returns a copy of the retained iteration history (oldest
// first) and how many early iterations were evicted past the cap.
func (r *Recorder) History() (stats []IterationStats, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := &r.progress
	return append([]IterationStats(nil), p.history...), p.dropped
}

// DefaultProgressHeartbeat is the SSE comment-ping interval when no
// snapshot was sent; it keeps idle connections alive through proxies.
const DefaultProgressHeartbeat = 15 * time.Second

// progressPollInterval is how often a /progress stream reads the active
// recorder's snapshot: one short critical section, so cheap enough to
// poll often enough that a run of a few tens of milliseconds still shows
// progress.
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
		// The last snapshot sent: a recorder's Seq only grows, so a
		// snapshot is new when its recorder or its Seq differs.
		var lastRec *Recorder
		var lastSeq int64
		lastWrite := time.Now()
		for {
			var frame []byte
			cur := ActiveRecorder()
			if snap, ok := cur.Progress(); ok && (cur != lastRec || snap.Seq != lastSeq) {
				data, err := json.Marshal(snap)
				if err != nil {
					return
				}
				frame = append(append([]byte("data: "), data...), '\n', '\n')
				lastRec, lastSeq = cur, snap.Seq
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
