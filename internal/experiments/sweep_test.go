package experiments

import (
	"testing"

	"kshape/internal/cluster"
	"kshape/internal/dataset"
	"kshape/internal/dist"
	"kshape/internal/eval"
	"kshape/internal/obs"
	"kshape/internal/ts"
)

// TestTable4MatricesFollowTheirData pins Table 4's dissimilarity matrices
// to the data of the call that uses them: a dataset re-drawn under a
// reused name and sizes must be scored from its own draws, and one of
// another size under a reused name must not index a stale matrix.
func TestTable4MatricesFollowTheirData(t *testing.T) {
	if testing.Short() {
		t.Skip("table4 sweep is slow")
	}
	// Two datasets at two workers, so that the race detector (make
	// test-race) sees the per-dataset matrix slots filled concurrently.
	cfg := ReducedConfig(2)
	cfg.Runs, cfg.SpectralRuns, cfg.Workers = 1, 1, 2
	Table4(cfg, ClusterBaseline(cfg))

	spec := dataset.ArchiveSpecs()[0]
	redrawn := spec
	redrawn.Seed += 7
	cfg.Datasets[0] = dataset.Generate(redrawn)
	ds := cfg.Datasets[0]
	data := ts.Rows(ds.All())
	h := cluster.NewHierarchical(cluster.CompleteLinkage, dist.EDMeasure{})
	res, err := h.ClusterWithMatrix(data, dist.PairwiseMatrix(dist.EDMeasure{}, data), ds.K)
	if err != nil {
		t.Fatal(err)
	}
	want := eval.RandIndex(res.Labels, ts.Labels(ds.All()))
	if got := Table4(cfg, ClusterBaseline(cfg)).RowByName(h.Name()).Scores[0]; got != want {
		t.Errorf("%s on re-drawn %s: Rand Index %v, want %v from its own data", h.Name(), ds.Name, got, want)
	}

	resized := spec
	resized.TestPerClass += 5
	cfg.Datasets[0] = dataset.Generate(resized)
	Table4(cfg, ClusterBaseline(cfg)) // a matrix of the old size would index out of range
}

// TestSweepsHonorWorkersAndRecordEveryUnit pins the Config.Workers rule
// and the run-report coverage: at 1 worker every sweep (and Figure 12's
// timed runs) is single-threaded, with all chunks on pool worker 0, and
// every scored sweep appends one record per (method, dataset, restart),
// each with its own counters.
func TestSweepsHonorWorkersAndRecordEveryUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are slow")
	}
	cfg := ReducedConfig(1)
	cfg.Workers = 1
	n, runs, spectral := len(cfg.Datasets), cfg.Runs, cfg.SpectralRuns
	sweeps := []struct {
		name string
		run  func()
		// units is the number of (method, dataset, restart) records.
		units int
	}{
		{"table2x", func() { Table2Extended(cfg) }, 7 * n},
		{"table3", func() { Table3(cfg, ClusterBaseline(cfg)) }, 7 * n * runs},
		// k-AVG+ED and 3 PAM rows restart; 9 hierarchical rows run once.
		{"table4", func() { Table4(cfg, ClusterBaseline(cfg)) }, (4*runs + 9 + 3*spectral) * n},
		{"ablations", func() { Ablations(cfg) }, 5 * n * runs},
		{"appendixA", func() { AppendixA(cfg, NormZScore) }, 3 * n},
		{"kestimation", func() { KEstimation(cfg) }, 0},
		{"fig12", func() { Fig12Sizes(cfg, []int{120}, 64, nil, 0) }, 0},
	}
	for _, s := range sweeps {
		rec := obs.NewRecorder(0)
		prev := obs.SetRecorder(rec)
		s.run()
		obs.SetRecorder(prev)
		rep := rec.Report("experiments_test", "", nil, obs.Counters{})
		for _, w := range rep.Workers {
			if w.Worker != 0 {
				t.Errorf("%s at Workers 1: pool worker %d ran %d chunks", s.name, w.Worker, w.Chunks)
			}
		}
		if len(rep.Runs) != s.units {
			t.Errorf("%s: %d run records, want %d", s.name, len(rep.Runs), s.units)
		}
		type unitKey struct {
			method, dataset string
			run             int
		}
		seen := map[unitKey]bool{}
		for _, r := range rep.Runs {
			if r.Counters == nil {
				t.Errorf("%s: %s on %s run %d carries no counters at Workers 1", s.name, r.Method, r.Dataset, r.Run)
			}
			key := unitKey{r.Method, r.Dataset, r.Run}
			if seen[key] {
				t.Errorf("%s: duplicate record for %s on %s run %d", s.name, r.Method, r.Dataset, r.Run)
			}
			seen[key] = true
		}
	}
}
