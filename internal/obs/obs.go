// Package obs is the instrumentation layer of the repository. It has two
// process-global install switches and nothing else global:
//
//   - SetEnabled gates the kernel counters (FFT transforms, distance
//     evaluations and pruned pairs, eigensolver iterations, empty-cluster
//     reseeds): cheap
//     atomic counts read with ReadCounters. Counting is off by default, so
//     the disabled path costs a single atomic load per instrumented call
//     site; hot loops accumulate locally and publish once. Scope a
//     measurement by snapshotting with ReadCounters before and after the
//     work and subtracting (see Counters.Sub).
//   - SetRecorder installs the flight recorder (Recorder), the single
//     telemetry record of a run: its phase latency histograms, event ring,
//     per-worker pool attribution, runtime samples, run gauges, live
//     progress and the experiment sweeps' per-run records. /metrics,
//     /debug/vars, /progress, the run report, the timeline and the
//     dashboard all render from it. Without a recorder each engine hook
//     costs one atomic pointer load.
//
// Alongside them sit the monotonic-clock stopwatch and the per-iteration
// refinement statistics. The package is standard-library only.
package obs

import "sync/atomic"

// Counter identifies one kernel counter.
type Counter int

// The kernel counters. Each names the operation whose invocation count the
// paper's complexity analysis (§3.3) reasons about: FFT transforms dominate
// SBD, distance evaluations dominate the assignment step, eigensolver
// iterations dominate shape extraction, and reseeds flag degenerate
// initializations.
const (
	// CounterFFT counts forward FFT transforms (fft.RFFT.Forward).
	CounterFFT Counter = iota
	// CounterIFFT counts inverse FFT transforms (fft.RFFT.Inverse).
	CounterIFFT
	// CounterSBD counts shape-based distance evaluations, across the
	// pairwise, batched, and naive implementations.
	CounterSBD
	// CounterED counts Euclidean distance evaluations (ED and SquaredED).
	CounterED
	// CounterDTW counts DTW and constrained-DTW evaluations.
	CounterDTW
	// CounterEigenIterations counts power-method iterations inside
	// linalg.Gram.Dominant.
	CounterEigenIterations
	// CounterEigenDecompositions counts full tridiagonal
	// eigendecompositions (linalg.EigenDecompose).
	CounterEigenDecompositions
	// CounterShapeExtractions counts shape-extraction centroid
	// computations (Algorithm 2).
	CounterShapeExtractions
	// CounterReseeds counts empty-cluster re-seeding events in the
	// refinement engine.
	CounterReseeds
	// CounterSBDPruned counts the (series, centroid) pairs k-Shape's
	// assignment scan skipped with its drift bound instead of evaluating
	// an SBD.
	CounterSBDPruned

	numCounters
)

// String returns the snake_case name used in the JSON report.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return "unknown"
	}
	return counterNames[c]
}

var counterNames = [numCounters]string{
	"fft",
	"ifft",
	"sbd",
	"ed",
	"dtw",
	"eigen_iterations",
	"eigen_decompositions",
	"shape_extractions",
	"reseeds",
	"sbd_pruned",
}

// paddedInt64 keeps each counter on its own cache line so that concurrent
// workers bumping different counters do not false-share.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

var (
	enabled  atomic.Bool
	counters [numCounters]paddedInt64
)

// SetEnabled turns counter accumulation on or off and returns the previous
// state. Counting is off by default so that instrumented kernels cost one
// atomic load when nobody is measuring.
func SetEnabled(on bool) (previous bool) {
	return enabled.Swap(on)
}

// Enabled reports whether counters are being accumulated.
func Enabled() bool { return enabled.Load() }

// Inc adds 1 to c if counting is enabled.
func Inc(c Counter) {
	if enabled.Load() {
		counters[c].v.Add(1)
	}
}

// Add adds n to c if counting is enabled. Hot loops should count locally
// and publish once through Add.
func Add(c Counter, n int64) {
	if n != 0 && enabled.Load() {
		counters[c].v.Add(n)
	}
}

// Counters is a point-in-time snapshot of every kernel counter, with JSON
// names matching Counter.String.
type Counters struct {
	FFT                 int64 `json:"fft"`
	IFFT                int64 `json:"ifft"`
	SBD                 int64 `json:"sbd"`
	ED                  int64 `json:"ed"`
	DTW                 int64 `json:"dtw"`
	EigenIterations     int64 `json:"eigen_iterations"`
	EigenDecompositions int64 `json:"eigen_decompositions"`
	ShapeExtractions    int64 `json:"shape_extractions"`
	Reseeds             int64 `json:"reseeds"`
	SBDPruned           int64 `json:"sbd_pruned"`
}

// ReadCounters snapshots the current counter values.
func ReadCounters() Counters {
	return Counters{
		FFT:                 counters[CounterFFT].v.Load(),
		IFFT:                counters[CounterIFFT].v.Load(),
		SBD:                 counters[CounterSBD].v.Load(),
		ED:                  counters[CounterED].v.Load(),
		DTW:                 counters[CounterDTW].v.Load(),
		EigenIterations:     counters[CounterEigenIterations].v.Load(),
		EigenDecompositions: counters[CounterEigenDecompositions].v.Load(),
		ShapeExtractions:    counters[CounterShapeExtractions].v.Load(),
		Reseeds:             counters[CounterReseeds].v.Load(),
		SBDPruned:           counters[CounterSBDPruned].v.Load(),
	}
}

// Sub returns the component-wise difference c - prev: the counts accrued
// between two snapshots.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		FFT:                 c.FFT - prev.FFT,
		IFFT:                c.IFFT - prev.IFFT,
		SBD:                 c.SBD - prev.SBD,
		ED:                  c.ED - prev.ED,
		DTW:                 c.DTW - prev.DTW,
		EigenIterations:     c.EigenIterations - prev.EigenIterations,
		EigenDecompositions: c.EigenDecompositions - prev.EigenDecompositions,
		ShapeExtractions:    c.ShapeExtractions - prev.ShapeExtractions,
		Reseeds:             c.Reseeds - prev.Reseeds,
		SBDPruned:           c.SBDPruned - prev.SBDPruned,
	}
}

// Each calls fn once per counter in declaration order, with the counter's
// snake_case name — the iteration primitive behind the Prometheus, expvar,
// slog, and bench-JSON exports.
func (c Counters) Each(fn func(name string, value int64)) {
	fn("fft", c.FFT)
	fn("ifft", c.IFFT)
	fn("sbd", c.SBD)
	fn("ed", c.ED)
	fn("dtw", c.DTW)
	fn("eigen_iterations", c.EigenIterations)
	fn("eigen_decompositions", c.EigenDecompositions)
	fn("shape_extractions", c.ShapeExtractions)
	fn("reseeds", c.Reseeds)
	fn("sbd_pruned", c.SBDPruned)
}

// Total returns the sum of every counter — a quick "did anything get
// measured" check.
func (c Counters) Total() int64 {
	return c.FFT + c.IFFT + c.SBD + c.ED + c.DTW +
		c.EigenIterations + c.EigenDecompositions + c.ShapeExtractions + c.Reseeds +
		c.SBDPruned
}
