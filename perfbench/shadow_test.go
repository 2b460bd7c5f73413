package main

import (
	"math"
	"testing"

	"kshape"
	"kshape/internal/dataset"
	"kshape/internal/ts"
)

func TestShadowClusterMatchesKShape(t *testing.T) {
	inputs := []struct {
		name string
		data [][]float64
		k    int
	}{
		{"cbf", ts.Rows(dataset.CBF(30, 64, 3)), 3},
		{"shapes", ts.Rows(dataset.Generate(shapesSpec(32, 4, 5)).Train), shapesK},
	}
	for _, in := range inputs {
		for _, workers := range []int{1, 2} {
			// Seed 3 runs with an iteration cap of 2, which stops it before it
			// converges.
			for seed := int64(1); seed <= 3; seed++ {
				maxIter := 0
				if seed == 3 {
					maxIter = 2
				}
				want, err := kshape.Cluster(in.data, in.k, kshape.Options{Seed: seed, MaxIterations: maxIter, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for _, tr := range []*Tracer{nil, NewTracer()} {
					got, err := shadowCluster(tr, in.data, in.k, seed, maxIter, workers)
					if err != nil {
						t.Fatal(err)
					}
					where := in.name
					if tr != nil {
						where += " traced"
					}
					if !sameInts(got.labels, want.Labels) {
						t.Errorf("%s workers=%d seed=%d: labels differ", where, workers, seed)
					}
					if got.iterations != want.Iterations || got.converged != want.Converged ||
						math.Float64bits(got.inertia) != math.Float64bits(want.Inertia) {
						t.Errorf("%s workers=%d seed=%d: (iterations, converged, inertia) = (%d, %v, %v), want (%d, %v, %v)",
							where, workers, seed, got.iterations, got.converged, got.inertia, want.Iterations, want.Converged, want.Inertia)
					}
					for c := range want.Centroids {
						if !equalFloatBits(got.centroids[c], want.Centroids[c]) {
							t.Errorf("%s workers=%d seed=%d: centroid %d differs", where, workers, seed, c)
						}
					}
				}
			}
		}
	}
}

func TestShadowClassifyMatchesClassify1NN(t *testing.T) {
	train := dataset.Generate(shapesSpec(32, 3, 1)).Train
	queries := dataset.Generate(shapesSpec(32, 2, 2)).Train
	for _, workers := range []int{1, 2} {
		want, err := kshape.Classify1NNWorkers(ts.Rows(train), ts.Labels(train), ts.Rows(queries), "SBD", false, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*Tracer{nil, NewTracer()} {
			got, err := shadowClassify(tr, ts.Rows(train), ts.Labels(train), ts.Rows(queries), workers)
			if err != nil {
				t.Fatal(err)
			}
			if !sameInts(got, want) {
				t.Errorf("workers=%d traced=%v: predictions %v, want %v", workers, tr != nil, got, want)
			}
		}
	}
}

func TestShadowSpansFormOneTree(t *testing.T) {
	tr := NewTracer()
	if _, err := shadowCluster(tr, ts.Rows(dataset.CBF(30, 64, 3)), 3, 1, 0, 2); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	ids := map[uint64]bool{}
	names := map[string]bool{}
	for _, s := range spans {
		ids[s.ID] = true
		names[s.Name] = true
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	roots := 0
	for _, s := range spans {
		if s.Parent == noParent {
			roots++
		} else if !ids[s.Parent] {
			t.Errorf("span %s has no parent in the trace", s.Name)
		}
	}
	if roots != 1 {
		t.Errorf("%d root spans, want 1", roots)
	}
	for _, name := range []string{"kshape.facade", "ts.znorm", "core.run", "dist.spectra", "core.refine",
		"par.for", "core.cluster", "dist.query", "dist.align_ncc", "ts.shift", "avg.extract",
		"core.assign", "par.chunks", "dist.assign_ncc"} {
		if !names[name] {
			t.Errorf("no %s span", name)
		}
	}
}
