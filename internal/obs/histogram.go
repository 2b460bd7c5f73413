package obs

import "time"

// The latency histograms use fixed log-scaled bucket boundaries: bound i
// covers durations in (bound[i-1], bound[i]] nanoseconds, with bound[i] =
// 1µs·2^i. The final (implicit +Inf) bucket absorbs everything above the
// last finite bound (~33.6s). Fixed boundaries keep recording to a bucket
// scan and three adds, and make snapshots from different processes
// directly comparable.
const (
	histFirstBound  = int64(1000) // 1µs
	numFiniteBounds = 26
	numHistoBuckets = numFiniteBounds + 1 // + overflow
	histBoundGrowth = 2
)

// histBounds holds the finite upper bounds in nanoseconds.
var histBounds = func() [numFiniteBounds]int64 {
	var b [numFiniteBounds]int64
	v := histFirstBound
	for i := range b {
		b[i] = v
		v *= histBoundGrowth
	}
	return b
}()

// Histogram is a latency histogram over the package's fixed log-scaled
// bucket boundaries. The zero value is ready to use. It is not safe for
// concurrent use; a Recorder guards its phase histograms with its mutex.
type Histogram struct {
	buckets [numHistoBuckets]int64
	count   int64
	sumNS   int64
}

// Observe records one duration in nanoseconds. Negative durations clamp to
// zero (they land in the first bucket).
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)]++
	h.count++
	h.sumNS += ns
}

// bucketIndex returns the bucket for a duration: the first finite bound
// >= ns, or the overflow bucket.
func bucketIndex(ns int64) int {
	for i, b := range histBounds {
		if ns <= b {
			return i
		}
	}
	return numFiniteBounds
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{Count: h.count, SumNS: h.sumNS, Buckets: append([]int64(nil), h.buckets[:]...)}
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Buckets[i]
// counts samples in (BucketBound(i-1), BucketBound(i)]; the last entry is
// the overflow bucket.
type HistogramSnapshot struct {
	// Name identifies the histogram in exports (set for phase histograms).
	Name string `json:"name,omitempty"`
	// Count is the total number of recorded samples.
	Count int64 `json:"count"`
	// SumNS is the sum of all recorded durations in nanoseconds.
	SumNS int64 `json:"sum_ns"`
	// Buckets holds per-bucket sample counts (not cumulative).
	Buckets []int64 `json:"buckets"`
}

// NumHistogramBuckets is the number of buckets every Histogram has,
// including the overflow bucket.
const NumHistogramBuckets = numHistoBuckets

// BucketBound returns the upper bound of bucket i in nanoseconds; the
// overflow bucket (i >= NumHistogramBuckets-1) reports -1, meaning +Inf.
func BucketBound(i int) int64 {
	if i < 0 {
		return 0
	}
	if i >= numFiniteBounds {
		return -1
	}
	return histBounds[i]
}

// Quantile estimates the q-quantile (q in [0, 1]) of the recorded
// durations in nanoseconds, by linear interpolation inside the bucket the
// target rank falls in. An empty histogram reports 0; ranks landing in the
// overflow bucket report the last finite bound (the estimate cannot
// extrapolate past it). For a fixed snapshot the estimate is monotone
// non-decreasing in q.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	if target < 1 {
		target = 1 // the rank of the smallest sample
	}
	cum := 0.0
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < target {
			continue
		}
		if i >= len(s.Buckets)-1 || BucketBound(i) < 0 {
			return float64(histBounds[numFiniteBounds-1])
		}
		lo := 0.0
		if i > 0 {
			lo = float64(histBounds[i-1])
		}
		hi := float64(histBounds[i])
		frac := (target - prev) / float64(c)
		return lo + (hi-lo)*frac
	}
	return float64(histBounds[numFiniteBounds-1])
}

// P50 is Quantile(0.50).
func (s HistogramSnapshot) P50() float64 { return s.Quantile(0.50) }

// P95 is Quantile(0.95).
func (s HistogramSnapshot) P95() float64 { return s.Quantile(0.95) }

// P99 is Quantile(0.99).
func (s HistogramSnapshot) P99() float64 { return s.Quantile(0.99) }

// Phase identifies one instrumented hot phase; each recorder keeps one
// latency histogram per phase.
type Phase int

// The phase histograms. Each wraps a region the span traces of the
// instrumentation layer already time: pairwise dissimilarity-matrix
// construction, the assignment and refinement steps of the iterative
// engines, one full refinement iteration, and one shape-extraction
// centroid computation.
const (
	// PhasePairwiseMatrix times dist.PairwiseMatrix builds (the SBD/ED/DTW
	// matrices behind the non-scalable methods and EstimateK).
	PhasePairwiseMatrix Phase = iota
	// PhaseAssign times one assignment step (all series to nearest
	// centroid) of the Lloyd and optimized k-Shape engines.
	PhaseAssign
	// PhaseRefine times one refinement step (all centroids recomputed).
	PhaseRefine
	// PhaseIteration times one full refinement iteration (refine + assign
	// + reseed).
	PhaseIteration
	// PhaseShapeExtract times one shape-extraction centroid computation
	// (Algorithm 2).
	PhaseShapeExtract

	numPhases
)

var phaseNames = [numPhases]string{
	"pairwise_matrix",
	"assign",
	"refine",
	"iteration",
	"shape_extract",
}

// String returns the snake_case phase name used in exports.
func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// noopStop is returned by StartPhase on the disabled path so that the
// deferred call allocates nothing.
var noopStop = func() {}

// StartPhase starts timing a phase and returns the function that records
// the elapsed duration on the active recorder: defer StartPhase(p)()
// around the phase body. With no recorder installed the returned function
// is a shared no-op and no clock is read.
func StartPhase(p Phase) func() {
	rec := activeRecorder.Load()
	if rec == nil {
		return noopStop
	}
	start := time.Now()
	return func() { rec.RecordPhaseSpan(p, time.Since(start).Nanoseconds()) }
}

// idleHistogram stands in for every phase histogram when no recorder is
// installed, so exports keep their shape.
var idleHistogram Histogram

// phaseSnapshots snapshots r's phase histograms in Phase order; a nil
// recorder reports every phase empty. The caller holds r.mu.
func (r *Recorder) phaseSnapshots() []HistogramSnapshot {
	out := make([]HistogramSnapshot, numPhases)
	for p := Phase(0); p < numPhases; p++ {
		h := &idleHistogram
		if r != nil {
			h = &r.phases[p]
		}
		out[p] = h.Snapshot()
		out[p].Name = p.String()
	}
	return out
}
