package obs

import (
	"math"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.SumNS != 0 {
		t.Errorf("empty snapshot: count=%d sum=%d", s.Count, s.SumNS)
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("Quantile(%g) on empty histogram = %g, want 0", q, got)
		}
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(int64(5 * time.Millisecond))
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.SumNS != int64(5*time.Millisecond) {
		t.Errorf("sum = %d", s.SumNS)
	}
	// Every quantile of a single-sample histogram lands in the sample's
	// bucket, so the estimates must bracket the true value within one
	// power-of-two bucket.
	for _, q := range []float64{0.5, 0.95, 0.99} {
		est := s.Quantile(q)
		if est < float64(2500*time.Microsecond) || est > float64(10*time.Millisecond) {
			t.Errorf("Quantile(%g) = %gns, outside the sample's bucket", q, est)
		}
	}
}

func TestHistogramBelowFirstBound(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-50) // negative durations clamp to zero
	h.Observe(500) // 0.5µs, below the 1µs first bound
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[0] != 3 {
		t.Errorf("first bucket = %d, want 3", s.Buckets[0])
	}
	if est := s.P99(); est > float64(time.Microsecond) {
		t.Errorf("P99 = %g, want within the first bucket", est)
	}
}

func TestHistogramAboveLastBound(t *testing.T) {
	var h Histogram
	huge := int64(2 * time.Hour) // far past the ~33s last finite bound
	h.Observe(huge)
	s := h.Snapshot()
	if s.Buckets[NumHistogramBuckets-1] != 1 {
		t.Errorf("overflow bucket = %d, want 1", s.Buckets[NumHistogramBuckets-1])
	}
	// The overflow bucket has no upper bound; the estimate reports the
	// last finite bound rather than inventing a value.
	want := float64(BucketBound(NumHistogramBuckets - 2))
	if got := s.P50(); got != want {
		t.Errorf("P50 = %g, want last finite bound %g", got, want)
	}
}

func TestHistogramBucketBoundsCoverObserved(t *testing.T) {
	// Each sample must land in the first bucket whose bound is >= sample.
	var h Histogram
	samples := []int64{
		int64(time.Microsecond) - 1,
		int64(time.Microsecond),
		int64(time.Microsecond) + 1,
		int64(30 * time.Millisecond),
		int64(time.Second),
	}
	for _, ns := range samples {
		h.Observe(ns)
	}
	s := h.Snapshot()
	var total int64
	for i, c := range s.Buckets {
		total += c
		for j := int64(0); j < c && i < NumHistogramBuckets-1; j++ {
			if b := BucketBound(i); b < 0 {
				t.Fatalf("finite bucket %d has infinite bound", i)
			}
		}
	}
	if total != int64(len(samples)) {
		t.Errorf("bucket total = %d, want %d", total, len(samples))
	}
}

// TestObservePhaseGatedByEnabled pins where phase latencies land: on the
// installed recorder's histograms only. The counter switch does not gate
// them: with counting on but no recorder nothing is observed, and with a
// recorder installed every span is observed whatever the switch.
func TestObservePhaseGatedByEnabled(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	defer SetRecorder(SetRecorder(nil))

	StartPhase(PhaseRefine)() // no recorder: dropped

	r := NewRecorder(16)
	SetRecorder(r)
	SetEnabled(false)
	r.RecordPhaseSpan(PhaseAssign, int64(time.Millisecond))
	StartPhase(PhaseRefine)()
	byName := map[string]HistogramSnapshot{}
	for _, s := range r.phaseSnapshots() {
		byName[s.Name] = s
	}
	if byName[PhaseAssign.String()].Count != 1 {
		t.Errorf("assign count = %d, want 1", byName[PhaseAssign.String()].Count)
	}
	if byName[PhaseRefine.String()].Count != 1 {
		t.Errorf("refine count = %d, want 1 (the span before the recorder was installed must not count)",
			byName[PhaseRefine.String()].Count)
	}
	for _, s := range (*Recorder)(nil).phaseSnapshots() {
		if s.Count != 0 || len(s.Buckets) != NumHistogramBuckets {
			t.Errorf("nil recorder phase %q = %+v, want an empty histogram", s.Name, s)
		}
	}
}

func TestHistogramQuantileInterpolates(t *testing.T) {
	var h Histogram
	// 100 samples in the same bucket: quantile estimates interpolate
	// linearly within [lower, upper) of that bucket and never leave it.
	ns := int64(3 * time.Millisecond)
	for i := 0; i < 100; i++ {
		h.Observe(ns)
	}
	s := h.Snapshot()
	lower := float64(BucketBound(bucketIndex(ns) - 1))
	upper := float64(BucketBound(bucketIndex(ns)))
	for q := 0.01; q <= 1.0; q += 0.01 {
		est := s.Quantile(q)
		if est < lower-1e-6 || est > upper+1e-6 {
			t.Fatalf("Quantile(%g) = %g outside bucket [%g, %g]", q, est, lower, upper)
		}
	}
	if math.Abs(s.Quantile(1.0)-upper) > 1e-6 {
		t.Errorf("Quantile(1) = %g, want bucket upper bound %g", s.Quantile(1.0), upper)
	}
}
