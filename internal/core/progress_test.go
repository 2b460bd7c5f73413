package core

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"kshape/internal/avg"
	"kshape/internal/dist"
	"kshape/internal/obs"
	"kshape/internal/ts"
)

// TestKShapeRunPublisherBitIdentical pins the observability contract of
// the progress layer: arming a flight recorder (which publishes live
// progress) must not change a single bit of the clustering — labels,
// centroids, inertia, the iteration trajectory, or kernel-counter totals
// — at any worker count.
func TestKShapeRunPublisherBitIdentical(t *testing.T) {
	data, _ := twoClassShiftedData(20, 48, rand.New(rand.NewSource(7)))
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	run := func(publish bool, workers int) *runSnapshot {
		if publish {
			pub := obs.NewRecorder(0)
			prevPub := obs.SetRecorder(pub)
			defer obs.SetRecorder(prevPub)
		}
		snap := &runSnapshot{}
		before := obs.ReadCounters()
		res, err := KShapeRun(data, Config{
			K:           3,
			Rand:        rand.New(rand.NewSource(11)),
			OnIteration: snap.record,
			Workers:     workers,
		})
		if err != nil {
			t.Fatalf("publish=%v workers=%d: %v", publish, workers, err)
		}
		snap.res = *res
		snap.counters = obs.ReadCounters().Sub(before)
		return snap
	}

	want := run(false, 1)
	for _, w := range workerCounts {
		snapshotsEqual(t, want, run(true, w), "recorder-on workers="+strconv.Itoa(w))
		snapshotsEqual(t, want, run(false, w), "recorder-off workers="+strconv.Itoa(w))
	}
}

// TestKShapeRunPublisherOnlyMatchesUnobserved covers the recorder-only
// path (no OnIteration callback): the observer then exists solely to
// feed the recorder's progress, and the clustering output must still
// match a fully unobserved run bit for bit. Kernel counters are exempt:
// the silhouette sample's top-2 scan legitimately evaluates more SBDs
// (TestKShapePrunedPairsAccountForEveryPair bounds how many).
func TestKShapeRunPublisherOnlyMatchesUnobserved(t *testing.T) {
	data, _ := twoClassShiftedData(20, 48, rand.New(rand.NewSource(7)))

	run := func(publish bool, workers int) *Result {
		if publish {
			pub := obs.NewRecorder(0)
			prevPub := obs.SetRecorder(pub)
			defer obs.SetRecorder(prevPub)
		}
		res, err := KShapeRun(data, Config{K: 3, Rand: rand.New(rand.NewSource(11)), Workers: workers})
		if err != nil {
			t.Fatalf("publish=%v workers=%d: %v", publish, workers, err)
		}
		return res
	}

	want := run(false, 1)
	for _, w := range workerCounts {
		got := run(true, w)
		if got.Inertia != want.Inertia || got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Errorf("workers=%d: inertia/iterations/converged = %v/%d/%v, want %v/%d/%v",
				w, got.Inertia, got.Iterations, got.Converged, want.Inertia, want.Iterations, want.Converged)
		}
		for i := range want.Labels {
			if got.Labels[i] != want.Labels[i] {
				t.Fatalf("workers=%d: label[%d] = %d, want %d", w, i, got.Labels[i], want.Labels[i])
			}
		}
		for j := range want.Centroids {
			for i := range want.Centroids[j] {
				if got.Centroids[j][i] != want.Centroids[j][i] {
					t.Fatalf("workers=%d: centroid[%d][%d] = %v, want %v",
						w, j, i, got.Centroids[j][i], want.Centroids[j][i])
				}
			}
		}
	}
}

// TestLloydPublisherBitIdentical is the same guarantee for the generic
// engine with an ED/mean (k-means) configuration.
func TestLloydPublisherBitIdentical(t *testing.T) {
	data, _ := twoClassShiftedData(25, 32, rand.New(rand.NewSource(3)))

	run := func(publish bool, workers int) *runSnapshot {
		if publish {
			pub := obs.NewRecorder(0)
			prevPub := obs.SetRecorder(pub)
			defer obs.SetRecorder(prevPub)
		}
		snap := &runSnapshot{}
		res, err := Lloyd(data, Config{
			K:           4,
			Rand:        rand.New(rand.NewSource(5)),
			OnIteration: snap.record,
			Workers:     workers,
		}, func(c, x []float64) float64 { return dist.ED(c, x) }, avg.Mean)
		if err != nil {
			t.Fatalf("publish=%v workers=%d: %v", publish, workers, err)
		}
		snap.res = *res
		return snap
	}

	want := run(false, 1)
	for _, w := range workerCounts {
		snapshotsEqual(t, want, run(true, w), "Lloyd recorder-on workers="+strconv.Itoa(w))
	}
}

// TestKShapeRunPublishedHistoryMatchesTrace checks that what the engines
// publish is exactly the OnIteration trajectory: same iterations, same
// per-cluster drift, same silhouette samples, no extras.
func TestKShapeRunPublishedHistoryMatchesTrace(t *testing.T) {
	data, _ := twoClassShiftedData(20, 48, rand.New(rand.NewSource(7)))
	pub := obs.NewRecorder(0)
	prevPub := obs.SetRecorder(pub)
	defer obs.SetRecorder(prevPub)

	var trace []obs.IterationStats
	res, err := KShapeRun(data, Config{
		K:           3,
		Rand:        rand.New(rand.NewSource(11)),
		OnIteration: func(st obs.IterationStats) { trace = append(trace, st) },
		Workers:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	history, dropped := pub.History()
	if dropped != 0 || len(history) != len(trace) {
		t.Fatalf("published %d iterations (%d dropped), trace has %d", len(history), dropped, len(trace))
	}
	for i := range trace {
		w, g := trace[i], history[i]
		if g.Iteration != w.Iteration || g.Inertia != w.Inertia || g.LabelChurn != w.LabelChurn ||
			g.InertiaDelta != w.InertiaDelta || g.SilhouetteSample != w.SilhouetteSample {
			t.Errorf("history[%d] = %+v, want %+v", i, g, w)
		}
		if len(g.CentroidDrift) != len(w.CentroidDrift) {
			t.Fatalf("history[%d] drift %v, want %v", i, g.CentroidDrift, w.CentroidDrift)
		}
		for j := range w.CentroidDrift {
			if g.CentroidDrift[j] != w.CentroidDrift[j] {
				t.Errorf("history[%d] drift[%d] = %v, want %v", i, j, g.CentroidDrift[j], w.CentroidDrift[j])
			}
		}
	}
	last := trace[len(trace)-1]
	snap, ok := pub.Progress()
	if !ok || snap.Iteration != last.Iteration || snap.Inertia != last.Inertia {
		t.Errorf("final snapshot %+v does not mirror last iteration %+v", snap, last)
	}
	if res.Converged && snap.LabelChurn != 0 {
		t.Errorf("converged run's final churn = %d", snap.LabelChurn)
	}
}

// TestRunObserverSilhouetteRange sanity-checks the sampled silhouette on
// well-separated data: scores must land in [-1, 1] and, once the
// clustering settles, be positive.
func TestRunObserverSilhouetteRange(t *testing.T) {
	data, _ := twoClassShiftedData(20, 48, rand.New(rand.NewSource(7)))
	var trace []obs.IterationStats
	res, err := KShapeRun(data, Config{
		K:           2,
		Rand:        rand.New(rand.NewSource(11)),
		OnIteration: func(st obs.IterationStats) { trace = append(trace, st) },
		Workers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range trace {
		if st.SilhouetteSample < -1 || st.SilhouetteSample > 1 {
			t.Errorf("iteration %d: silhouette %v out of [-1, 1]", i+1, st.SilhouetteSample)
		}
	}
	if res.Converged {
		final := trace[len(trace)-1].SilhouetteSample
		if final <= 0 {
			t.Errorf("final silhouette %v on separable data; expected > 0", final)
		}
	}
}

// TestCentroidDriftIsLagZeroNCC is the drift oracle: at iteration t,
// CentroidDrift[j] is 1 − ⟨ĉ, ĉ′⟩ for the centroids that runs capped at
// t−1 and t iterations return — the normalized cross-correlation at lag
// 0, so it never reads below the SBD between them — and 1 at iteration 1
// (or whenever either centroid is all zero), SBD's degenerate convention.
func TestCentroidDriftIsLagZeroNCC(t *testing.T) {
	data, _ := twoClassShiftedData(30, 40, rand.New(rand.NewSource(43)))
	engines := []struct {
		name string
		run  func(Config) (*Result, error)
	}{
		{"k-Shape", func(cfg Config) (*Result, error) { return KShapeRun(data, cfg) }},
		{"k-AVG+ED", func(cfg Config) (*Result, error) {
			return Lloyd(data, cfg, func(c, x []float64) float64 { return dist.ED(c, x) }, avg.Mean)
		}},
	}
	for _, e := range engines {
		run := func(maxIter int, onIter func(obs.IterationStats)) *Result {
			res, err := e.run(Config{K: 4, Rand: rand.New(rand.NewSource(44)), MaxIterations: maxIter, OnIteration: onIter})
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			return res
		}
		var trace []obs.IterationStats
		run(0, func(st obs.IterationStats) { trace = append(trace, st) })
		if len(trace) < 3 {
			t.Fatalf("%s: %d iterations; the oracle needs at least 3", e.name, len(trace))
		}
		var before [][]float64
		for _, st := range trace {
			after := run(st.Iteration, nil).Centroids
			for j, got := range st.CentroidDrift {
				want := 1.0
				if st.Iteration > 1 {
					if na, nb := ts.Norm(before[j]), ts.Norm(after[j]); na > 0 && nb > 0 {
						want = 1 - ts.Dot(before[j], after[j])/(na*nb)
					}
					if sbd := dist.SBDDist(before[j], after[j]); got < sbd-1e-12 {
						t.Errorf("%s: iteration %d drift[%d] = %v is below the SBD %v", e.name, st.Iteration, j, got, sbd)
					}
				}
				if math.Abs(got-want) > 1e-12 {
					t.Errorf("%s: iteration %d drift[%d] = %v, want 1 − ⟨ĉ, ĉ′⟩ = %v", e.name, st.Iteration, j, got, want)
				}
			}
			before = after
		}
	}
}
