// bench_test.go provides one testing.B benchmark per table and figure of
// the paper's evaluation (run the cmd/kbench binary for the full-scale
// regeneration with printed rows), plus micro-benchmarks for the primitive
// operations whose costs drive Table 2's runtime column.
//
// The per-experiment benchmarks run on deliberately small archive subsets
// so that `go test -bench=. -benchmem` completes in minutes; the shapes of
// the results (who wins, by roughly what factor) match the full runs
// recorded in EXPERIMENTS.md.
package kshape

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"kshape/internal/avg"
	"kshape/internal/core"
	"kshape/internal/dataset"
	"kshape/internal/dist"
	"kshape/internal/eval"
	"kshape/internal/experiments"
	"kshape/internal/fft"
	"kshape/internal/obs"
	"kshape/internal/ts"
)

// benchConfig builds an experiment configuration over the named archive
// datasets with minimal run counts.
func benchConfig(b *testing.B, names ...string) experiments.Config {
	b.Helper()
	cfg := experiments.Config{Runs: 2, SpectralRuns: 2, Seed: 1, MaxWindowFrac: 0.10}
	for _, name := range names {
		ds, ok := dataset.ArchiveByName(name)
		if !ok {
			b.Fatalf("dataset %q not in archive", name)
		}
		cfg.Datasets = append(cfg.Datasets, ds)
	}
	return cfg
}

// --- one benchmark per table ------------------------------------------------

func BenchmarkTable2Distances(b *testing.B) {
	cfg := benchConfig(b, "ShortWaves", "ShortBumps")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table2(cfg)
	}
}

func BenchmarkTable3Scalable(b *testing.B) {
	cfg := benchConfig(b, "ShortWaves", "ShortBumps")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table3(cfg, experiments.ClusterBaseline(cfg))
	}
}

func BenchmarkTable4NonScalable(b *testing.B) {
	cfg := benchConfig(b, "ShortWaves", "ShortBumps")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table4(cfg, experiments.ClusterBaseline(cfg))
	}
}

// --- one benchmark per figure ------------------------------------------------

func BenchmarkFig2WarpingPath(b *testing.B) {
	cfg := benchConfig(b, "TinyWaves")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig2(cfg)
	}
}

func BenchmarkFig3Normalizations(b *testing.B) {
	cfg := benchConfig(b, "TinyWaves")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig3(cfg)
	}
}

func BenchmarkFig4ShapeExtractionVsMean(b *testing.B) {
	cfg := benchConfig(b, "ECGLike")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig4(cfg)
	}
}

func BenchmarkFig5Scatter(b *testing.B) {
	cfg := benchConfig(b, "ShortWaves", "ShortBumps")
	t2 := experiments.Table2(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig5(cfg, t2)
	}
}

func BenchmarkFig6DistanceRanks(b *testing.B) {
	cfg := benchConfig(b, "ShortWaves", "ShortBumps")
	t2 := experiments.Table2(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig6(cfg, t2)
	}
}

func BenchmarkFig7ClusterScatter(b *testing.B) {
	cfg := benchConfig(b, "ShortWaves", "ShortBumps")
	t3 := experiments.Table3(cfg, experiments.ClusterBaseline(cfg))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig7(cfg, t3)
	}
}

func BenchmarkFig8ClusterRanks(b *testing.B) {
	cfg := benchConfig(b, "ShortWaves", "ShortBumps")
	t3 := experiments.Table3(cfg, experiments.ClusterBaseline(cfg))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig8(cfg, t3)
	}
}

func BenchmarkFig9CombinedRanks(b *testing.B) {
	cfg := benchConfig(b, "ShortWaves", "ShortBumps")
	base := experiments.ClusterBaseline(cfg)
	t3, t4 := experiments.Table3(cfg, base), experiments.Table4(cfg, base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig9(cfg, t3, t4)
	}
}

func BenchmarkFig10OptimalScaling(b *testing.B) {
	cfg := benchConfig(b, "ShortWaves", "ShortBumps")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AppendixA(cfg, experiments.NormOptimalScaling)
	}
}

func BenchmarkFig11Values01(b *testing.B) {
	cfg := benchConfig(b, "ShortWaves", "ShortBumps")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.AppendixA(cfg, experiments.NormValues01)
	}
}

func BenchmarkFig12ScalabilityVaryN(b *testing.B) {
	cfg := benchConfig(b, "TinyWaves")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig12Sizes(cfg, []int{120, 240}, 64, nil, 0)
	}
}

func BenchmarkFig12ScalabilityVaryM(b *testing.B) {
	cfg := benchConfig(b, "TinyWaves")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig12Sizes(cfg, nil, 0, []int{32, 64}, 120)
	}
}

// --- micro-benchmarks: the primitives behind Table 2's runtime column ---------

func benchPair(m int) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, m)
	y := make([]float64, m)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	return ts.ZNormalizeInPlace(x), ts.ZNormalizeInPlace(y)
}

func BenchmarkED128(b *testing.B) {
	x, y := benchPair(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist.ED(x, y)
	}
}

func BenchmarkSBD128(b *testing.B) {
	x, y := benchPair(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist.SBDDist(x, y)
	}
}

func BenchmarkSBDNoFFT128(b *testing.B) {
	x, y := benchPair(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist.SBDNoFFT(x, y)
	}
}

func BenchmarkSBDBatch128(b *testing.B) {
	x, y := benchPair(128)
	batch := dist.NewSBDBatch([][]float64{y})
	q := batch.Query(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Distance(0)
	}
}

// benchRFFT times the real-FFT plan on the shape every SBD feeds it: a
// z-normalized series of length l/2 zero-padded to l forward, and the
// correlation of two such series' spectra inverse (CrossCorrelate forms
// the product X·conj(Y) itself).
func benchRFFT(b *testing.B, l int, inverse bool) {
	x, y := benchPair(l / 2)
	p := fft.Plan(l)
	sx := make([]complex128, p.SpectrumLen())
	sy := make([]complex128, p.SpectrumLen())
	work := make([]complex128, p.WorkLen())
	out := make([]float64, l)
	p.Forward(x, sx, work)
	p.Forward(y, sy, work)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inverse {
			p.CrossCorrelate(sx, sy, out, work)
		} else {
			p.Forward(x, sy, work)
		}
	}
}

func BenchmarkRFFTForward128(b *testing.B)  { benchRFFT(b, 128, false) }
func BenchmarkRFFTForward512(b *testing.B)  { benchRFFT(b, 512, false) }
func BenchmarkRFFTForward1024(b *testing.B) { benchRFFT(b, 1024, false) }
func BenchmarkRFFTInverse128(b *testing.B)  { benchRFFT(b, 128, true) }
func BenchmarkRFFTInverse512(b *testing.B)  { benchRFFT(b, 512, true) }
func BenchmarkRFFTInverse1024(b *testing.B) { benchRFFT(b, 1024, true) }

func BenchmarkDTW128(b *testing.B) {
	x, y := benchPair(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist.DTW(x, y)
	}
}

func BenchmarkCDTW5_128(b *testing.B) {
	x, y := benchPair(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist.CDTW(x, y, 6)
	}
}

func BenchmarkShapeExtraction(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	cluster := make([][]float64, 30)
	for i := range cluster {
		x := make([]float64, 128)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		cluster[i] = ts.ZNormalizeInPlace(x)
	}
	ref := cluster[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		avg.ShapeExtraction(cluster, ref)
	}
}

// shapeBenchCluster is one class of the k-Shape benchmark workloads'
// generators, cut to n members of length m: CBF cylinders, or the
// 8-class shapes generator's sine class.
func shapeBenchCluster(cbf bool, n, m int) [][]float64 {
	var src []ts.Series
	if cbf {
		src = dataset.CBF(3*n, m, 1)
	} else {
		src = dataset.Generate(dataset.Spec{
			Name: "shapes", M: m, TrainPerClass: n, Noise: 0.3, MaxShift: m / 8, WarpFrac: 0.05, Seed: 1,
			Classes: []dataset.ClassProto{dataset.SineProto(2, 0), dataset.SquareProto(2)},
		}).Train
	}
	var rows [][]float64
	for _, s := range src {
		if s.Label == 0 && len(rows) < n {
			rows = append(rows, s.Values)
		}
	}
	return rows
}

func benchShapeExtractionAligned(b *testing.B, rows [][]float64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		avg.ShapeExtractionAligned(rows)
	}
}

// BenchmarkShapeExtractionCBF30x512 is a kshape-cbf-long cluster: n < m,
// so the power iteration runs on the 30×30 K = AAᵀ.
func BenchmarkShapeExtractionCBF30x512(b *testing.B) {
	benchShapeExtractionAligned(b, shapeBenchCluster(true, 30, 512))
}

// BenchmarkShapeExtractionShapes100x64 is a kshape-shapes-many cluster:
// n ≥ m, so the power iteration runs on the 64×64 M = AᵀA. Its λ₂/λ₁ is
// about 0.88, so it takes many more steps than the CBF cluster.
func BenchmarkShapeExtractionShapes100x64(b *testing.B) {
	benchShapeExtractionAligned(b, shapeBenchCluster(false, 100, 64))
}

// BenchmarkKShapeCBF90x512 is one kshape-cbf-long job: long series whose
// clusters are narrower than they are long, so extraction iterates on K.
func BenchmarkKShapeCBF90x512(b *testing.B) {
	data := ts.Rows(dataset.CBF(90, 512, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.KShapeRun(data, core.Config{K: 3, MaxIterations: 4, Rand: rand.New(rand.NewSource(1)), Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKShapeShapes800x64 is one kshape-shapes-many job: 100 series
// per class of the 8-class shapes generator (shift ±m/8, warp 0.05, noise
// 0.3), m=64, k=8, ten iterations, one worker. Its sbd/op and
// sbd_pruned/op are the assignment scan's exact pair counts.
func BenchmarkKShapeShapes800x64(b *testing.B) {
	data := ts.Rows(dataset.Generate(dataset.Spec{
		Name: "shapes8", M: 64, TrainPerClass: 100, Noise: 0.3, MaxShift: 64 / 8, WarpFrac: 0.05, Seed: 1,
		Classes: []dataset.ClassProto{
			dataset.SineProto(2, 0), dataset.SquareProto(2), dataset.TriangleProto(3), dataset.SawtoothProto(2),
			dataset.ChirpProto(1, 6), dataset.GaussProto(0.5, 0.08), dataset.DoubleGaussProto(0.3, 0.7, 0.06, 0.7), dataset.StepProto(0.5),
		},
	}).Train)
	stop := benchCounters(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(data, 8, Options{Seed: 1, MaxIterations: 10, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stop()
}

func BenchmarkKShapeCBF300x128(b *testing.B) {
	data := ts.Rows(dataset.CBF(300, 128, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.KShapeRun(data, core.Config{K: 3, Rand: rand.New(rand.NewSource(int64(i)))}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKAvgEDCBF300x128(b *testing.B) {
	data := ts.Rows(dataset.CBF(300, 128, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Lloyd(data, core.Config{K: 3, Rand: rand.New(rand.NewSource(int64(i)))},
			func(c, x []float64) float64 { return dist.ED(c, x) }, avg.Mean)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	cfg := benchConfig(b, "ShortWaves", "ShortBumps")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Ablations(cfg)
	}
}

func BenchmarkTable2Extended(b *testing.B) {
	cfg := benchConfig(b, "ShortWaves", "ShortBumps")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table2Extended(cfg)
	}
}

// --- serial vs parallel: the internal/par execution layer ---------------------
//
// Each parallel benchmark measures a baseline and the production parallel
// path outside the timed region (paired minima, see pairedMinDurations) and
// reports their ratio, so `go test -bench Parallel` prints the gain of the
// deterministic parallel path directly. The pairwise-matrix baseline is the
// per-pair SBD build every caller ran before the spectrum cache, so its
// ratio is reported as "batch_vs_perpair", the end-to-end gain of RFFT +
// cached spectra + batch NCC; the k-Shape and 1-NN baselines are the same
// engine at workers=1, reported as "speedup", pinning the parallel layer at >= 1x (the pool
// collapses to the serial path when the machine cannot run chunks
// concurrently; on a multi-core machine the ratio reflects real scaling).
// The outputs themselves are bit-identical either way (see the determinism
// tests), so the worker count is purely a throughput knob.

// benchParallelWorkers is the worker count the parallel variants run with.
const benchParallelWorkers = 8

// pairedMinDurations measures the speedup inputs with the same paired-
// minimum protocol BenchmarkDistanceMatrixSBDRecorder uses for its overhead
// metric: baseline and candidate runs alternate, each behind a forced
// collection so GC state cannot align with one side, and the fastest
// observation per side is kept. Interference on a shared machine only ever
// slows a run down, so the minima converge to the true per-side costs and
// their ratio is stable to a few tenths of a percent — where a single
// -benchtime=1x sample against an averaged baseline flaps by several
// percent.
func pairedMinDurations(rounds int, baseline, candidate func()) (base, cand time.Duration) {
	base, cand = -1, -1
	timeIt := func(fn func()) time.Duration {
		runtime.GC()
		start := time.Now()
		fn()
		return time.Since(start)
	}
	for r := 0; r < rounds; r++ {
		// Alternate which side runs first (ABBA) so periodic interference —
		// a neighbor VM stealing the CPU on a fixed cadence — cannot stay
		// phase-aligned with one side across every round.
		if r%2 == 0 {
			if d := timeIt(baseline); base < 0 || d < base {
				base = d
			}
			if d := timeIt(candidate); cand < 0 || d < cand {
				cand = d
			}
		} else {
			if d := timeIt(candidate); cand < 0 || d < cand {
				cand = d
			}
			if d := timeIt(baseline); base < 0 || d < base {
				base = d
			}
		}
	}
	return base, cand
}

// reportRatio reports baseline/candidate as the named metric, rounded to
// one decimal — the honest precision of a paired-minimum measurement on a
// shared machine (two minima of the *same* workload still land a percent
// or two apart): real regressions still move the number, while sub-noise
// digits stop flapping the recorded baseline.
func reportRatio(b *testing.B, baseline, candidate time.Duration, unit string) {
	b.ReportMetric(math.Round(float64(baseline)/float64(candidate)*10)/10, unit)
}

// benchCounters enables kernel-counter collection and returns a stop
// function that reports each nonzero counter delta as a per-op metric
// ("fft/op", "sbd/op", ...), which cmd/benchjson folds into
// BENCH_kshape.json. Call it after any untimed setup or serial-baseline
// work so the delta covers only the measured loop; the atomic increments
// add a few nanoseconds per kernel call, negligible at the granularity
// these benchmarks measure.
func benchCounters(b *testing.B) func() {
	b.Helper()
	prev := obs.SetEnabled(true)
	before := obs.ReadCounters()
	return func() {
		delta := obs.ReadCounters().Sub(before)
		obs.SetEnabled(prev)
		if b.N == 0 {
			return
		}
		delta.Each(func(name string, v int64) {
			if v != 0 {
				b.ReportMetric(float64(v)/float64(b.N), name+"/op")
			}
		})
	}
}

// perPairSBD forces the generic per-pair PairwiseMatrixWorkers path (three
// full-size FFTs per pair, allocating per call) by hiding SBD behind a
// Func: the baseline the cached-spectra batch path is measured against.
var perPairSBD = dist.Func{Label: "SBD", Fn: dist.SBDDist}

func BenchmarkDistanceMatrixSBDSerial(b *testing.B) {
	data := ts.Rows(dataset.CBF(120, 128, 1))
	stop := benchCounters(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.PairwiseMatrixWorkers(dist.SBDMeasure{}, data, 1)
	}
	b.StopTimer()
	stop()
}

// BenchmarkDistanceMatrixSBDPerPair keeps the legacy per-pair matrix build
// measured so its cost stays visible next to the batch path it was
// replaced by.
func BenchmarkDistanceMatrixSBDPerPair(b *testing.B) {
	data := ts.Rows(dataset.CBF(120, 128, 1))
	stop := benchCounters(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.PairwiseMatrixWorkers(perPairSBD, data, 1)
	}
	b.StopTimer()
	stop()
}

// BenchmarkDistanceMatrixSBDParallel times the production pairwise path —
// cached spectra at benchParallelWorkers — and reports as
// "batch_vs_perpair" its gain over the serial per-pair implementation (the
// code every caller ran before the spectrum cache): the end-to-end effect
// of RFFT + cached spectra + batch NCC + the parallel layer on one matrix
// build. It is not a parallel speedup; the serial baseline differs in
// kernel, not only in worker count.
func BenchmarkDistanceMatrixSBDParallel(b *testing.B) {
	data := ts.Rows(dataset.CBF(120, 128, 1))
	serial, parallel := pairedMinDurations(10,
		func() { dist.PairwiseMatrixWorkers(perPairSBD, data, 1) },
		func() { dist.PairwiseMatrixWorkers(dist.SBDMeasure{}, data, benchParallelWorkers) })
	stop := benchCounters(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.PairwiseMatrixWorkers(dist.SBDMeasure{}, data, benchParallelWorkers)
	}
	b.StopTimer()
	stop()
	reportRatio(b, serial, parallel, "batch_vs_perpair")
}

// BenchmarkDistanceMatrixSBDBatchSteady pins the steady-state allocation
// behavior of the batch pairwise kernel: spectra cached, output matrix and
// scratch preallocated, so the measured loop is pure spectral products,
// half-size inverse transforms, and lag scans — 0 B/op by construction,
// gated in BENCH_kshape.json.
func BenchmarkDistanceMatrixSBDBatchSteady(b *testing.B) {
	data := ts.Rows(dataset.CBF(120, 128, 1))
	batch := dist.NewSBDBatch(data)
	out := make([][]float64, batch.Len())
	for i := range out {
		out[i] = make([]float64, batch.Len())
	}
	batch.PairwiseInto(out, 1) // warm the scratch pool
	stop := benchCounters(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.PairwiseInto(out, 1)
	}
	b.StopTimer()
	stop()
}

// BenchmarkDistanceMatrixSBDRecorder measures the flight recorder's cost
// on the parallel pairwise-matrix build. The ns/op column times the
// recorded path; the "recorder_overhead_pct" metric is a paired
// measurement (recorder off vs on, interleaved, median of several pairs —
// robust to the noise a single -benchtime=1x sample would have) that
// lands in BENCH_kshape.json as the tracked overhead number. The recorder
// only adds clock reads around chunk bodies, so the budget is <= 2%.
func BenchmarkDistanceMatrixSBDRecorder(b *testing.B) {
	data := ts.Rows(dataset.CBF(120, 128, 1))
	work := func() { dist.PairwiseMatrixWorkers(dist.SBDMeasure{}, data, benchParallelWorkers) }
	work() // warm caches before any timing

	// Paired overhead measurement, outside the timed region: alternate
	// recorder-off and recorder-on runs and compare the fastest run of
	// each side. Interference (GC, scheduler preemption, other container
	// load) only ever slows a run down, so the minimum over many runs
	// converges to the true cost per side and their ratio to the true
	// overhead — far more stable than averaging on a shared machine.
	// Each run allocates ~80MB, so collection cycles trigger every few
	// runs and can align with the off/on alternation, charging GC to one
	// side. Forcing a collection before every timed run pins both sides
	// to the same collector state (the GC itself runs outside the timed
	// window).
	const rounds = 18
	timeIt := func() time.Duration {
		runtime.GC()
		start := time.Now()
		work()
		return time.Since(start)
	}
	minOff, minOn := time.Duration(-1), time.Duration(-1)
	for p := 0; p < rounds; p++ {
		if d := timeIt(); minOff < 0 || d < minOff {
			minOff = d
		}
		prev := obs.SetRecorder(obs.NewRecorder(0))
		d := timeIt()
		obs.SetRecorder(prev)
		if minOn < 0 || d < minOn {
			minOn = d
		}
	}
	overheadPct := (float64(minOn)/float64(minOff) - 1) * 100

	// The timed loop runs the recorded path, so ns/op is directly
	// comparable with BenchmarkDistanceMatrixSBDParallel's.
	prev := obs.SetRecorder(obs.NewRecorder(0))
	defer obs.SetRecorder(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work()
	}
	b.StopTimer()
	b.ReportMetric(overheadPct, "recorder_overhead_pct")
}

// BenchmarkKShapeProgressPublisher measures the cost of an armed flight
// recorder on a full k-Shape run: the engine's run observer computes
// per-cluster centroid drift and the sampled silhouette each iteration
// and publishes an atomic progress snapshot, and the spans, chunks and
// latency histograms land on the recorder. The
// "progress_overhead_pct" metric uses the same paired-minimum protocol as
// recorder_overhead_pct (alternating off/on runs, a forced collection
// before each, fastest run per side) and lands in BENCH_kshape.json as
// the tracked overhead number; the budget is <= 2%.
func BenchmarkKShapeProgressPublisher(b *testing.B) {
	data := ts.Rows(dataset.CBF(240, 128, 1))
	work := func() {
		if _, err := core.KShapeRun(data, core.Config{K: 3, Rand: rand.New(rand.NewSource(1)), Workers: benchParallelWorkers}); err != nil {
			b.Fatal(err)
		}
	}
	work() // warm caches before any timing

	const rounds = 18
	timeIt := func() time.Duration {
		runtime.GC()
		start := time.Now()
		work()
		return time.Since(start)
	}
	minOff, minOn := time.Duration(-1), time.Duration(-1)
	for p := 0; p < rounds; p++ {
		if d := timeIt(); minOff < 0 || d < minOff {
			minOff = d
		}
		prev := obs.SetRecorder(obs.NewRecorder(0))
		d := timeIt()
		obs.SetRecorder(prev)
		if minOn < 0 || d < minOn {
			minOn = d
		}
	}
	overheadPct := (float64(minOn)/float64(minOff) - 1) * 100

	// The timed loop runs the recorded path, so ns/op is directly
	// comparable with BenchmarkKShapeRefinementParallel's.
	prev := obs.SetRecorder(obs.NewRecorder(0))
	defer obs.SetRecorder(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work()
	}
	b.StopTimer()
	b.ReportMetric(overheadPct, "progress_overhead_pct")
}

func BenchmarkKShapeRefinementSerial(b *testing.B) {
	data := ts.Rows(dataset.CBF(240, 128, 1))
	stop := benchCounters(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.KShapeRun(data, core.Config{K: 3, Rand: rand.New(rand.NewSource(1)), Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stop()
}

func BenchmarkKShapeRefinementParallel(b *testing.B) {
	data := ts.Rows(dataset.CBF(240, 128, 1))
	serial, parallel := pairedMinDurations(10,
		func() {
			if _, err := core.KShapeRun(data, core.Config{K: 3, Rand: rand.New(rand.NewSource(1)), Workers: 1}); err != nil {
				b.Fatal(err)
			}
		},
		func() {
			if _, err := core.KShapeRun(data, core.Config{K: 3, Rand: rand.New(rand.NewSource(1)), Workers: benchParallelWorkers}); err != nil {
				b.Fatal(err)
			}
		})
	stop := benchCounters(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.KShapeRun(data, core.Config{K: 3, Rand: rand.New(rand.NewSource(1)), Workers: benchParallelWorkers}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stop()
	reportRatio(b, serial, parallel, "speedup")
}

func BenchmarkOneNNSerial(b *testing.B) {
	train := dataset.CBF(90, 128, 1)
	test := dataset.CBF(60, 128, 2)
	stop := benchCounters(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.OneNNAccuracyWorkers(dist.SBDMeasure{}, train, test, 1)
	}
	b.StopTimer()
	stop()
}

func BenchmarkOneNNParallel(b *testing.B) {
	train := dataset.CBF(90, 128, 1)
	test := dataset.CBF(60, 128, 2)
	serial, parallel := pairedMinDurations(10,
		func() { eval.OneNNAccuracyWorkers(dist.SBDMeasure{}, train, test, 1) },
		func() { eval.OneNNAccuracyWorkers(dist.SBDMeasure{}, train, test, benchParallelWorkers) })
	stop := benchCounters(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.OneNNAccuracyWorkers(dist.SBDMeasure{}, train, test, benchParallelWorkers)
	}
	b.StopTimer()
	stop()
	reportRatio(b, serial, parallel, "speedup")
}

func BenchmarkSBD1024(b *testing.B) {
	x, y := benchPair(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist.SBDDist(x, y)
	}
}

func BenchmarkSBDNoFFT1024(b *testing.B) {
	x, y := benchPair(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist.SBDNoFFT(x, y)
	}
}

func BenchmarkED1024(b *testing.B) {
	x, y := benchPair(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist.ED(x, y)
	}
}
