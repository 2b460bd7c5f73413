package obs

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProgressPublisherLifecycle(t *testing.T) {
	pub := NewRecorder(0)
	if _, ok := pub.Progress(); ok {
		t.Fatal("fresh recorder has a progress snapshot")
	}
	pub.BeginRun("k-Shape", 120, 3, 100)
	snap, ok := pub.Progress()
	if !ok || snap.Phase != ProgressPhaseInit {
		t.Fatalf("after BeginRun: ok=%v snap=%+v", ok, snap)
	}
	if snap.Method != "k-Shape" || snap.Series != 120 || snap.K != 3 || snap.MaxIterations != 100 {
		t.Errorf("run identity not published: %+v", snap)
	}
	if snap.Seq != 1 || snap.ETAIterations != -1 {
		t.Errorf("seq=%d eta=%d, want 1/-1", snap.Seq, snap.ETAIterations)
	}

	pub.PublishIteration(IterationStats{
		Iteration: 1, Inertia: 40.5, LabelChurn: 30,
		ClusterSizes: []int{50, 40, 30}, CentroidDrift: []float64{1, 1, 0.5},
		SilhouetteSample: 0.4,
	})
	pub.PublishIteration(IterationStats{
		Iteration: 2, Inertia: 30.25, InertiaDelta: -10.25, LabelChurn: 15,
		ClusterSizes: []int{45, 45, 30}, CentroidDrift: []float64{0.2, 0.1, 0.05},
		SilhouetteSample: 0.5,
	})
	snap, _ = pub.Progress()
	if snap.Phase != ProgressPhaseIterating || snap.Iteration != 2 || snap.Seq != 3 {
		t.Errorf("after two iterations: %+v", snap)
	}
	if snap.Inertia != 30.25 || snap.InertiaDelta != -10.25 || snap.LabelChurn != 15 {
		t.Errorf("latest stats not mirrored: %+v", snap)
	}
	if snap.DriftMax != 0.2 || snap.SilhouetteSample != 0.5 {
		t.Errorf("drift/silhouette not mirrored: %+v", snap)
	}
	if len(snap.ClusterSizes) != 3 || snap.ClusterSizes[0] != 45 {
		t.Errorf("cluster sizes not mirrored: %+v", snap.ClusterSizes)
	}

	pub.EndRun(true)
	snap, _ = pub.Progress()
	if snap.Phase != ProgressPhaseDone || !snap.Converged || snap.ETAIterations != 0 {
		t.Errorf("after EndRun(true): %+v", snap)
	}
	// The terminal snapshot keeps the last iteration's metrics readable.
	if snap.Iteration != 2 || snap.Inertia != 30.25 {
		t.Errorf("terminal snapshot dropped the metrics: %+v", snap)
	}

	history, dropped := pub.History()
	if len(history) != 2 || dropped != 0 {
		t.Fatalf("history: %d entries, %d dropped", len(history), dropped)
	}
	if history[0].Iteration != 1 || history[1].Iteration != 2 {
		t.Errorf("history out of order: %+v", history)
	}
}

func TestProgressPublisherReuseAcrossRuns(t *testing.T) {
	pub := NewRecorder(0)
	pub.BeginRun("k-Shape", 10, 2, 100)
	pub.PublishIteration(IterationStats{Iteration: 1, LabelChurn: 5})
	pub.EndRun(true)
	pub.BeginRun("k-AVG+ED", 10, 2, 100)
	snap, _ := pub.Progress()
	if snap.Method != "k-AVG+ED" || snap.Phase != ProgressPhaseInit {
		t.Errorf("second BeginRun did not reset: %+v", snap)
	}
	if history, _ := pub.History(); len(history) != 0 {
		t.Errorf("history not reset: %d entries", len(history))
	}
}

func TestProgressHistoryBounded(t *testing.T) {
	pub := NewRecorder(0)
	pub.BeginRun("k-Shape", 10, 2, maxProgressHistory+10)
	// A churn sequence that ends in a period-2 cycle, so the diagnostics
	// read a non-trivial tail after the history has evicted its head.
	churn := make([]int, maxProgressHistory+10)
	for i := range churn {
		churn[i] = len(churn) - i
		if i >= len(churn)-oscillationWindow {
			churn[i] = 3 + i%2
		}
		pub.PublishIteration(IterationStats{Iteration: i + 1, LabelChurn: churn[i]})
	}
	snap, _ := pub.Progress()
	want := Diagnose(churn)
	if !want.Oscillating {
		t.Fatal("the churn sequence does not end oscillating; the check is vacuous")
	}
	if snap.Stalled != want.Stalled || snap.Oscillating != want.Oscillating || snap.ETAIterations != want.ETAIterations {
		t.Errorf("final snapshot diagnostics stalled/oscillating/eta = %v/%v/%d, want Diagnose over the full churn %v/%v/%d",
			snap.Stalled, snap.Oscillating, snap.ETAIterations, want.Stalled, want.Oscillating, want.ETAIterations)
	}
	history, dropped := pub.History()
	if len(history) != maxProgressHistory || dropped != 10 {
		t.Fatalf("history: %d entries, %d dropped; want %d/%d",
			len(history), dropped, maxProgressHistory, 10)
	}
	if history[0].Iteration != 11 || history[len(history)-1].Iteration != maxProgressHistory+10 {
		t.Errorf("wrong window retained: first=%d last=%d",
			history[0].Iteration, history[len(history)-1].Iteration)
	}
}

func TestProgressSnapshotImmutable(t *testing.T) {
	pub := NewRecorder(0)
	pub.BeginRun("k-Shape", 4, 2, 10)
	sizes := []int{2, 2}
	pub.PublishIteration(IterationStats{Iteration: 1, ClusterSizes: sizes})
	sizes[0] = 99 // caller mutates its slice after publishing
	snap, _ := pub.Progress()
	if snap.ClusterSizes[0] != 2 {
		t.Errorf("published snapshot aliased the caller's slice: %+v", snap.ClusterSizes)
	}
}

// TestProgressPackageHelpersGateOnInstall pins the engine-hook contract:
// the hooks are called on whatever ActiveRecorder returned, so with no
// recorder installed they run on nil and must be no-ops, and with one
// installed they forward to it.
func TestProgressPackageHelpersGateOnInstall(t *testing.T) {
	prev := SetRecorder(nil)
	t.Cleanup(func() { SetRecorder(prev) })
	rec := ActiveRecorder()
	if rec != nil {
		t.Fatal("no recorder should be active")
	}
	rec.BeginRun("k-Shape", 10, 2, 100)
	rec.PublishIteration(IterationStats{Iteration: 1})
	rec.EndRun(true)
	if _, ok := rec.Progress(); ok {
		t.Fatal("nil recorder reported a snapshot")
	}
	pub := NewRecorder(0)
	SetRecorder(pub)
	rec = ActiveRecorder()
	rec.BeginRun("k-Shape", 10, 2, 100)
	rec.PublishIteration(IterationStats{Iteration: 1, LabelChurn: 4})
	rec.EndRun(true)
	snap, ok := pub.Progress()
	if !ok || snap.Phase != ProgressPhaseDone || !snap.Converged {
		t.Errorf("hooks did not forward: ok=%v %+v", ok, snap)
	}
}

func TestProgressDiagnosticsFlowThroughSnapshots(t *testing.T) {
	pub := NewRecorder(0)
	pub.BeginRun("k-Shape", 100, 2, 100)
	for _, churn := range []int{40, 6, 6, 6, 6} {
		pub.PublishIteration(IterationStats{LabelChurn: churn})
	}
	snap, _ := pub.Progress()
	if !snap.Stalled {
		t.Errorf("stall not diagnosed: %+v", snap)
	}
	pub.BeginRun("k-Shape", 100, 2, 100)
	for _, churn := range []int{64, 32, 16, 8} {
		pub.PublishIteration(IterationStats{LabelChurn: churn})
	}
	snap, _ = pub.Progress()
	if snap.ETAIterations != 4 {
		t.Errorf("ETA = %d, want 4", snap.ETAIterations)
	}
}

func TestProgressConcurrentReadersUnderPublish(t *testing.T) {
	pub := armRecorder(t)
	pub.BeginRun("k-Shape", 100, 3, 1000)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if snap, ok := pub.Progress(); ok && snap.Seq < 1 {
					t.Error("torn snapshot")
					return
				}
				var sb strings.Builder
				if err := WritePrometheus(&sb); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		pub.PublishIteration(IterationStats{
			Iteration: i + 1, Inertia: float64(1000 - i), LabelChurn: 500 - i/2,
			ClusterSizes: []int{30, 40, 30}, CentroidDrift: []float64{0.1, 0.2, 0.3},
		})
	}
	pub.EndRun(true)
	close(done)
	wg.Wait()
}

func TestWritePrometheusProgressGauges(t *testing.T) {
	pub := armRecorder(t)

	// No snapshot yet: no progress families.
	var sb strings.Builder
	if err := WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "kshape_progress_") {
		t.Error("progress gauges rendered before any snapshot")
	}

	pub.BeginRun("k-Shape", 120, 3, 100)
	pub.PublishIteration(IterationStats{
		Iteration: 7, Inertia: 12.5, InertiaDelta: -1.25, LabelChurn: 9,
		ClusterSizes: []int{50, 40, 30}, CentroidDrift: []float64{0.3, 0.1, 0.2},
		SilhouetteSample: 0.625,
	})
	sb.Reset()
	if err := WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`kshape_progress_info{method="k-Shape",phase="iterating"} 1`,
		"kshape_progress_iteration 7",
		"kshape_progress_max_iterations 100",
		"kshape_progress_inertia 12.5",
		"kshape_progress_inertia_delta -1.25",
		"kshape_progress_label_churn 9",
		"kshape_progress_centroid_drift_max 0.3",
		"kshape_progress_silhouette_sample 0.625",
		"kshape_progress_eta_iterations",
		"kshape_progress_stalled 0",
		"kshape_progress_oscillating 0",
		"kshape_progress_converged 0",
		`kshape_progress_cluster_size{cluster="0"} 50`,
		`kshape_progress_cluster_size{cluster="2"} 30`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// readSSEEvent consumes lines until one data: event (returned decoded)
// or a comment heartbeat (returned as isHeartbeat).
func readSSEEvent(t *testing.T, r *bufio.Reader) (p Progress, isHeartbeat bool) {
	t.Helper()
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
				t.Fatalf("bad event payload: %v (%q)", err, line)
			}
			return p, false
		case strings.HasPrefix(line, ":"):
			return Progress{}, true
		case line == "":
			continue
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
}

func TestProgressSSEStream(t *testing.T) {
	pub := armRecorder(t)
	pub.BeginRun("k-Shape", 64, 2, 100)

	srv := httptest.NewServer(progressHandler(120 * time.Millisecond))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	r := bufio.NewReader(resp.Body)

	// The current snapshot replays on connect.
	first, hb := readSSEEvent(t, r)
	if hb || first.Phase != ProgressPhaseInit || first.Method != "k-Shape" {
		t.Fatalf("initial replay = %+v (heartbeat=%v)", first, hb)
	}

	pub.PublishIteration(IterationStats{Iteration: 1, Inertia: 5.5, LabelChurn: 12})
	ev, hb := readSSEEvent(t, r)
	if hb || ev.Iteration != 1 || ev.Inertia != 5.5 || ev.LabelChurn != 12 {
		t.Fatalf("iteration event = %+v (heartbeat=%v)", ev, hb)
	}

	// Idle stream: the next frame is a comment heartbeat.
	if _, hb := readSSEEvent(t, r); !hb {
		t.Fatal("expected a heartbeat on the idle stream")
	}

	pub.EndRun(true)
	for {
		ev, hb := readSSEEvent(t, r)
		if hb {
			continue
		}
		if ev.Phase != ProgressPhaseDone || !ev.Converged {
			t.Fatalf("terminal event = %+v", ev)
		}
		break
	}
}

// TestProgressSSEDeliversDoneAfterBurst: a burst of iterations published
// faster than the stream writes them must not cost the terminal snapshot.
// The stream may skip intermediate snapshots, but the done frame carrying
// Converged must arrive promptly, every round.
func TestProgressSSEDeliversDoneAfterBurst(t *testing.T) {
	for round := 0; round < 20; round++ {
		pub := armRecorder(t)
		pub.BeginRun("k-Shape", 300, 3, 1000)
		srv := httptest.NewServer(ProgressHandler())
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(resp.Body)
		if first, hb := readSSEEvent(t, r); hb || first.Phase != ProgressPhaseInit {
			t.Fatalf("round %d: initial replay = %+v (heartbeat=%v)", round, first, hb)
		}

		done := make(chan Progress, 1)
		go func() {
			for {
				line, err := r.ReadString('\n')
				if err != nil {
					return
				}
				var p Progress
				data, ok := strings.CutPrefix(strings.TrimRight(line, "\n"), "data: ")
				if ok && json.Unmarshal([]byte(data), &p) == nil && p.Phase == ProgressPhaseDone {
					done <- p
					return
				}
			}
		}()
		for i := 0; i < 300; i++ {
			pub.PublishIteration(IterationStats{Iteration: i + 1, LabelChurn: 300 - i})
		}
		pub.EndRun(true)
		select {
		case p := <-done:
			if !p.Converged || p.Iteration != 300 {
				t.Errorf("round %d: terminal snapshot = %+v", round, p)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("round %d: no done snapshot within 2s of EndRun", round)
		}
		resp.Body.Close()
		srv.Close()
	}
}

// TestProgressSSEFollowsLateInstalledPublisher: a /progress stream opened
// before any recorder is armed picks up the one installed later.
func TestProgressSSEFollowsLateInstalledPublisher(t *testing.T) {
	prev := SetRecorder(nil)
	t.Cleanup(func() { SetRecorder(prev) })

	srv := httptest.NewServer(progressHandler(40 * time.Millisecond))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)

	// No recorder yet: only heartbeats.
	if _, hb := readSSEEvent(t, r); !hb {
		t.Fatal("expected heartbeat while no recorder is installed")
	}

	pub := NewRecorder(0)
	SetRecorder(pub)
	pub.BeginRun("k-AVG+ED", 10, 2, 50)
	deadline := time.Now().Add(5 * time.Second)
	for {
		ev, hb := readSSEEvent(t, r)
		if !hb {
			if ev.Method != "k-AVG+ED" {
				t.Fatalf("event from wrong run: %+v", ev)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never picked up the late recorder")
		}
	}
}
