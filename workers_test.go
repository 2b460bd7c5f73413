package kshape

import (
	"testing"

	"kshape/internal/obs"
)

// TestClusterDeterministicAcrossWorkers pins the public-API contract stated
// on Options.Workers: for a fixed Seed, every worker count yields
// bit-identical labels, centroids, inertia, and iteration counts — across
// the scalable and non-scalable method families.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	data, _ := twoShapeClasses(12, 40, 3)
	for _, method := range []string{"k-Shape", "k-AVG+ED", "PAM+SBD", "S+ED"} {
		run := func(workers int) *Result {
			res, err := Cluster(data, 2, Options{Seed: 5, Method: method, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", method, workers, err)
			}
			return res
		}
		want := run(1)
		for _, w := range []int{0, 2, 8} {
			got := run(w)
			if got.Inertia != want.Inertia || got.Iterations != want.Iterations {
				t.Errorf("%s workers=%d: inertia/iterations = %v/%d, want %v/%d",
					method, w, got.Inertia, got.Iterations, want.Inertia, want.Iterations)
			}
			for i := range want.Labels {
				if got.Labels[i] != want.Labels[i] {
					t.Fatalf("%s workers=%d: label[%d] = %d, want %d",
						method, w, i, got.Labels[i], want.Labels[i])
				}
			}
			for j := range want.Centroids {
				for i := range want.Centroids[j] {
					if got.Centroids[j][i] != want.Centroids[j][i] {
						t.Fatalf("%s workers=%d: centroid[%d][%d] differs (must be bit-identical)",
							method, w, j, i)
					}
				}
			}
		}
	}
}

// TestClusterTraceDeterministicAcrossWorkers extends the guarantee to the
// instrumented path: the per-iteration inertia/churn trajectory and the
// kernel-counter totals must not depend on the worker count (only the
// TestClusterSerialWorkersStayOnWorkerZero pins Options.Workers' "1 means
// fully serial" for every method family, the matrix builds of the
// hierarchical, PAM and spectral methods included: with a flight recorder
// installed, all pool work must be attributed to worker 0.
func TestClusterSerialWorkersStayOnWorkerZero(t *testing.T) {
	data, _ := twoShapeClasses(16, 32, 4)
	for _, method := range []string{"k-Shape", "k-AVG+ED", "Features+k-means", "H-C+SBD", "H-S+ED", "PAM+SBD", "S+SBD"} {
		rec := obs.NewRecorder(1 << 14)
		prev := obs.SetRecorder(rec)
		_, err := Cluster(data, 2, Options{Seed: 3, Method: method, Workers: 1})
		obs.SetRecorder(prev)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		rep := rec.Report("workers_test", "", nil, obs.Counters{})
		if len(rep.Workers) == 0 {
			t.Errorf("%s: no pool work attributed", method)
		}
		for _, w := range rep.Workers {
			if w.Worker != 0 {
				t.Errorf("%s with Workers=1: %d items attributed to worker %d, want worker 0 only", method, w.Items, w.Worker)
			}
		}
	}
}

// wall-clock fields may).
func TestClusterTraceDeterministicAcrossWorkers(t *testing.T) {
	data, _ := twoShapeClasses(10, 32, 7)
	run := func(workers int) *Result {
		res, err := Cluster(data, 2, Options{Seed: 2, CollectTrace: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Trace == nil {
			t.Fatalf("workers=%d: no trace collected", workers)
		}
		return res
	}
	want := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if len(got.Trace.Iterations) != len(want.Trace.Iterations) {
			t.Fatalf("workers=%d: %d trace iterations, want %d",
				w, len(got.Trace.Iterations), len(want.Trace.Iterations))
		}
		for i := range want.Trace.Iterations {
			wi, gi := want.Trace.Iterations[i], got.Trace.Iterations[i]
			if gi.Inertia != wi.Inertia || gi.LabelChurn != wi.LabelChurn || gi.Reseeds != wi.Reseeds {
				t.Errorf("workers=%d: trace[%d] inertia/churn/reseeds = %v/%d/%d, want %v/%d/%d",
					w, i, gi.Inertia, gi.LabelChurn, gi.Reseeds, wi.Inertia, wi.LabelChurn, wi.Reseeds)
			}
		}
		if got.Trace.Counters != want.Trace.Counters {
			t.Errorf("workers=%d: kernel counters %+v, want %+v (parallelism must not change operation counts)",
				w, got.Trace.Counters, want.Trace.Counters)
		}
	}
}

// TestClassify1NNWorkersDeterministic: predictions are identical for every
// worker count, and the plain Classify1NN entry point (all CPUs) matches.
func TestClassify1NNWorkersDeterministic(t *testing.T) {
	train, labels := twoShapeClasses(15, 30, 11)
	queries, _ := twoShapeClasses(10, 30, 13)
	want, err := Classify1NNWorkers(train, labels, queries, "SBD", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 8} {
		got, err := Classify1NNWorkers(train, labels, queries, "SBD", false, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: prediction[%d] = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
	plain, err := Classify1NN(train, labels, queries, "SBD", false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if plain[i] != want[i] {
			t.Fatalf("Classify1NN: prediction[%d] = %d, want %d", i, plain[i], want[i])
		}
	}
}
