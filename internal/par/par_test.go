package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// workerCounts are the degrees of parallelism every determinism test
// sweeps; 8 deliberately exceeds most CI machines' core counts so that
// oversubscription is covered too.
var workerCounts = []int{1, 2, 3, 8}

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.NumCPU() {
		t.Errorf("Resolve(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Resolve(-3); got != runtime.NumCPU() {
		t.Errorf("Resolve(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	for _, w := range []int{1, 2, 64} {
		if got := Resolve(w); got != w {
			t.Errorf("Resolve(%d) = %d", w, got)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1023} {
		for _, w := range workerCounts {
			hits := make([]int32, n)
			For(w, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, w, i, h)
				}
			}
		}
	}
}

// TestForChunksPartition pins ForChunksMin's partition: chunks are
// non-empty, cover the range exactly once, and hold at least min indices
// unless the whole range is shorter than min — for n below, at and above
// min. With a recorder armed the full logical pool runs, so the chunk
// count is also checked against the chunkCount mirror whatever
// GOMAXPROCS is.
func TestForChunksPartition(t *testing.T) {
	for _, floor := range []int{1, 4} {
		for _, n := range []int{1, 3, 4, 5, 7, 16, 97} {
			for _, w := range workerCounts {
				for _, recorded := range []bool{false, true} {
					hits := make([]int32, n)
					var chunks atomic.Int32
					run := func() {
						ForChunksMin(w, n, floor, func(lo, hi int) {
							chunks.Add(1)
							if lo >= hi {
								t.Errorf("empty chunk [%d,%d)", lo, hi)
							}
							if hi-lo < floor && hi-lo != n {
								t.Errorf("min=%d n=%d workers=%d: chunk [%d,%d) is below the floor", floor, n, w, lo, hi)
							}
							for i := lo; i < hi; i++ {
								atomic.AddInt32(&hits[i], 1)
							}
						})
					}
					if recorded {
						withRecorder(t, run)
						if got, want := int(chunks.Load()), chunkCount(w, n, floor); got != want {
							t.Errorf("min=%d n=%d workers=%d: %d chunks, want %d", floor, n, w, got, want)
						}
					} else {
						run()
					}
					for i, h := range hits {
						if h != 1 {
							t.Fatalf("min=%d n=%d workers=%d: index %d covered %d times", floor, n, w, i, h)
						}
					}
				}
			}
		}
	}
}

// TestForConcurrentDisjointWrites exercises the documented usage contract
// (each iteration writes only its own slot) under the race detector.
func TestForConcurrentDisjointWrites(t *testing.T) {
	n := 4096
	out := make([]float64, n)
	For(8, n, func(i int) { out[i] = float64(i) * 0.5 })
	for i, v := range out {
		if v != float64(i)*0.5 {
			t.Fatalf("out[%d] = %v", i, v)
		}
	}
}
