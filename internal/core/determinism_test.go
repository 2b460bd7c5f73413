package core

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"kshape/internal/avg"
	"kshape/internal/dist"
	"kshape/internal/obs"
)

// runSnapshot captures everything about a clustering run that must be
// independent of the worker count: the result fields plus the iteration
// trajectory with the wall-clock fields zeroed (RefineNS/AssignNS measure
// time, which legitimately varies run to run).
type runSnapshot struct {
	res      Result
	trace    []obs.IterationStats
	counters obs.Counters
}

func (s *runSnapshot) record(it obs.IterationStats) {
	it.RefineNS, it.AssignNS = 0, 0
	s.trace = append(s.trace, it)
}

func snapshotsEqual(t *testing.T, want, got *runSnapshot, label string) {
	t.Helper()
	if got.res.Iterations != want.res.Iterations || got.res.Converged != want.res.Converged {
		t.Errorf("%s: iterations/converged = %d/%v, want %d/%v",
			label, got.res.Iterations, got.res.Converged, want.res.Iterations, want.res.Converged)
	}
	if got.res.Inertia != want.res.Inertia {
		t.Errorf("%s: inertia = %v, want %v (must be bit-identical)", label, got.res.Inertia, want.res.Inertia)
	}
	for i := range want.res.Labels {
		if got.res.Labels[i] != want.res.Labels[i] {
			t.Fatalf("%s: label[%d] = %d, want %d", label, i, got.res.Labels[i], want.res.Labels[i])
		}
	}
	if len(got.res.Centroids) != len(want.res.Centroids) {
		t.Fatalf("%s: %d centroids, want %d", label, len(got.res.Centroids), len(want.res.Centroids))
	}
	for j := range want.res.Centroids {
		for i := range want.res.Centroids[j] {
			if got.res.Centroids[j][i] != want.res.Centroids[j][i] {
				t.Fatalf("%s: centroid[%d][%d] = %v, want %v (must be bit-identical)",
					label, j, i, got.res.Centroids[j][i], want.res.Centroids[j][i])
			}
		}
	}
	if len(got.trace) != len(want.trace) {
		t.Fatalf("%s: trace has %d iterations, want %d", label, len(got.trace), len(want.trace))
	}
	for i := range want.trace {
		w, g := want.trace[i], got.trace[i]
		if g.Iteration != w.Iteration || g.Inertia != w.Inertia || g.LabelChurn != w.LabelChurn || g.Reseeds != w.Reseeds ||
			!sameBits(g.InertiaDelta, w.InertiaDelta) || !sameBits(g.SilhouetteSample, w.SilhouetteSample) {
			t.Errorf("%s: trace[%d] = %+v, want %+v", label, i, g, w)
		}
		driftDiffers := len(g.CentroidDrift) != len(w.CentroidDrift)
		for j := 0; !driftDiffers && j < len(w.CentroidDrift); j++ {
			driftDiffers = !sameBits(g.CentroidDrift[j], w.CentroidDrift[j])
		}
		if driftDiffers {
			t.Errorf("%s: trace[%d] centroid drift %v, want %v", label, i, g.CentroidDrift, w.CentroidDrift)
		}
		for j := range w.ClusterSizes {
			if g.ClusterSizes[j] != w.ClusterSizes[j] {
				t.Errorf("%s: trace[%d] cluster sizes %v, want %v", label, i, g.ClusterSizes, w.ClusterSizes)
				break
			}
		}
	}
	if got.counters != want.counters {
		t.Errorf("%s: kernel counters %+v, want %+v (parallel path must not change operation counts)",
			label, got.counters, want.counters)
	}
}

var workerCounts = []int{1, 2, 8}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestKShapeRunDeterministicAcrossWorkers is the central guarantee of the
// parallel execution layer: k-Shape produces bit-identical labels,
// centroids, iteration trajectories, and kernel-counter totals for every
// worker count under a fixed seed.
func TestKShapeRunDeterministicAcrossWorkers(t *testing.T) {
	data, _ := twoClassShiftedData(20, 48, rand.New(rand.NewSource(7)))
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	run := func(workers int) *runSnapshot {
		snap := &runSnapshot{}
		before := obs.ReadCounters()
		res, err := KShapeRun(data, Config{
			K:           3,
			Rand:        rand.New(rand.NewSource(11)),
			OnIteration: snap.record,
			Workers:     workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snap.res = *res
		snap.counters = obs.ReadCounters().Sub(before)
		return snap
	}

	want := run(1)
	for _, w := range workerCounts[1:] {
		snapshotsEqual(t, want, run(w), "k-Shape workers="+strconv.Itoa(w))
	}
}

// TestKShapeSpectrumCacheWarmVsCold pins the correctness contract of every
// shortcut in the k-Shape step against the reference it must reproduce:
// Lloyd with SBD and shape extraction, which recomputes every centroid,
// alignment shift and (series, centroid) SBD each iteration. The cached,
// pruned run must produce bit-identical labels, centroids, inertia, and
// iteration trajectory at every worker count — with and without a run
// observer, whose silhouette reads the full distance rows of its sampled
// series. There are more series than the observer samples, so the
// observed runs prune too. Kernel counters differ between the engines —
// skipping redundant work is the whole point — but must not differ
// across worker counts.
func TestKShapeSpectrumCacheWarmVsCold(t *testing.T) {
	data, _ := twoClassShiftedData(45, 48, rand.New(rand.NewSource(7)))
	if len(data) <= silhouetteSampleCap {
		t.Fatalf("%d series are all sampled; the observed runs would not prune", len(data))
	}
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	lloyd := func(data [][]float64, cfg Config) (*Result, error) {
		return Lloyd(data, cfg, dist.SBDDist, avg.ShapeExtraction)
	}
	run := func(engine func([][]float64, Config) (*Result, error), observed bool, workers int) *runSnapshot {
		snap := &runSnapshot{}
		cfg := Config{K: 4, Rand: rand.New(rand.NewSource(11)), Workers: workers}
		if observed {
			cfg.OnIteration = snap.record
		}
		before := obs.ReadCounters()
		res, err := engine(data, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snap.res = *res
		snap.counters = obs.ReadCounters().Sub(before)
		return snap
	}

	for _, observed := range []bool{false, true} {
		cold := run(lloyd, observed, 1)
		warm := run(KShapeRun, observed, 1)
		if warm.counters.SBDPruned == 0 {
			t.Fatalf("observed=%v: the warm run pruned nothing; the comparison would not exercise the bound", observed)
		}
		for _, w := range workerCounts {
			name := fmt.Sprintf("observed=%v workers=%d", observed, w)
			hot := run(KShapeRun, observed, w)
			snapshotsEqual(t, warm, hot, "cache-warm "+name)
			ref := *cold
			ref.counters = hot.counters
			snapshotsEqual(t, &ref, hot, "Lloyd reference "+name)
		}
	}
}

// TestKShapeSpectrumCachePartialInvalidation proves the cache actually
// skips work in the partial-invalidation regime — a multi-iteration run in
// which some centroids settle while others still move. Without the cache
// a run does one forward transform per series (the data spectra, once)
// plus one per centroid per iteration; with settled centroids the cached
// run must stay strictly below that.
func TestKShapeSpectrumCachePartialInvalidation(t *testing.T) {
	// This data/rng seed pair converges in 11 iterations, so most
	// iterations run with a mix of settled and moving centroids.
	data, _ := twoClassShiftedData(20, 48, rand.New(rand.NewSource(1)))
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	const k = 3
	before := obs.ReadCounters()
	res, err := KShapeRun(data, Config{K: k, Rand: rand.New(rand.NewSource(11)), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := obs.ReadCounters().Sub(before)
	if res.Iterations < 3 {
		t.Fatalf("run converged in %d iterations; need >= 3 for a warm cache to matter", res.Iterations)
	}
	if uncached := int64(len(data) + k*res.Iterations); got.FFT >= uncached {
		t.Errorf("cached run did %d forward transforms, an uncached one does %d; cache produced no savings", got.FFT, uncached)
	}
}

// TestLloydDeterministicAcrossWorkers checks the generic engine with an
// ED/mean configuration (k-means): identical output for every worker count.
func TestLloydDeterministicAcrossWorkers(t *testing.T) {
	data, _ := twoClassShiftedData(25, 32, rand.New(rand.NewSource(3)))

	run := func(workers int) *runSnapshot {
		snap := &runSnapshot{}
		res, err := Lloyd(data, Config{
			K:           4,
			Rand:        rand.New(rand.NewSource(5)),
			OnIteration: snap.record,
			Workers:     workers,
		}, func(c, x []float64) float64 { return dist.ED(c, x) }, avg.Mean)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snap.res = *res
		return snap
	}

	want := run(1)
	for _, w := range workerCounts[1:] {
		snapshotsEqual(t, want, run(w), "Lloyd workers="+strconv.Itoa(w))
	}
}

// TestKShapeDefaultWorkersMatchesSerial pins the Workers=0 (NumCPU) path to
// the serial reference as well, since that is the default every caller gets.
func TestKShapeDefaultWorkersMatchesSerial(t *testing.T) {
	data, _ := twoClassShiftedData(15, 40, rand.New(rand.NewSource(9)))
	serial, err := KShapeRun(data, Config{K: 2, Rand: rand.New(rand.NewSource(2)), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := KShapeRun(data, Config{K: 2, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Labels {
		if serial.Labels[i] != auto.Labels[i] {
			t.Fatalf("label[%d]: serial %d, default-workers %d", i, serial.Labels[i], auto.Labels[i])
		}
	}
	if serial.Inertia != auto.Inertia {
		t.Fatalf("inertia: serial %v, default-workers %v", serial.Inertia, auto.Inertia)
	}
}
