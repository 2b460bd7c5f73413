// Package par is the repository's shared parallel-execution substrate: a
// stdlib-only work-partitioning layer used by every compute-heavy loop in
// the codebase (distance-matrix construction, the k-Shape assignment and
// refinement steps, PAM cost scans, spectral affinity rows, and 1-NN
// evaluation).
//
// The design goal is determinism: for a fixed input, every exported helper
// produces bit-for-bit identical results regardless of the worker count or
// goroutine scheduling. The rules that make this hold are:
//
//   - For/ForChunks parallelize loops whose body writes only to state
//     addressed by the loop index (out[i] = f(i)); the write targets are
//     disjoint, so scheduling order is irrelevant.
//   - Integer reductions (SumInt) are exact, so per-chunk partial sums
//     combine in any order.
//   - Index reductions (MinIndex) break ties toward the smaller
//     index, which makes the merge associative and commutative over exact
//     comparisons and therefore partition-independent; the result matches
//     a serial ascending scan with a strict comparison.
//
// Work is scheduled dynamically: the index range is split into a few
// contiguous chunks per worker and goroutines claim chunks through an
// atomic cursor, which balances loops with heterogeneous per-index cost
// (triangular distance-matrix rows, uneven cluster sizes) without hurting
// the determinism contract above.
package par

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"kshape/internal/obs"
)

// chunksPerWorker oversamples the chunk count relative to the worker count
// so that dynamic scheduling can balance uneven per-index costs. Larger
// values smooth skew at the price of more cursor contention.
const chunksPerWorker = 4

// Resolve maps a requested worker count to the effective one: any value
// below 1 means runtime.NumCPU() (the package-wide default), and positive
// values are taken as-is. 1 means fully serial execution on the caller's
// goroutine.
func Resolve(workers int) int {
	if workers < 1 {
		return runtime.NumCPU()
	}
	return workers
}

// For runs fn(i) for every i in [0, n) using at most Resolve(workers)
// concurrent goroutines. fn must only write to state addressed by i (or
// otherwise owned by index i); under that contract the results are
// identical for every worker count. With workers == 1 (or n <= 1) the loop
// runs serially on the calling goroutine with no synchronization.
func For(workers, n int, fn func(i int)) {
	ForChunks(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForChunks partitions [0, n) into contiguous half-open chunks [lo, hi) and
// invokes fn once per chunk, using at most Resolve(workers) concurrent
// goroutines. Chunks are disjoint and cover the full range exactly once.
// Use it instead of For when the body wants per-chunk setup (a scratch
// buffer, a batched query) amortized over many indices.
//
// When a flight recorder is installed (obs.SetRecorder), every worker
// additionally records its chunk spans and per-invocation attribution —
// chunks executed, items covered, busy time inside fn versus time waiting
// for work — without perturbing scheduling or results: the recorder only
// adds clock reads around chunk bodies, and the work partition is
// identical with and without it. The serial path (one worker) is
// attributed to worker 0 so pool-efficiency numbers stay comparable
// across worker counts.
func ForChunks(workers, n int, fn func(lo, hi int)) {
	ForChunksMin(workers, n, 1, fn)
}

// ForChunksMin is ForChunks with a floor on the chunk size: the range is
// never split into chunks of fewer than min indices (except the final
// remainder), capping worker-handoff overhead when the per-index work is
// small. The partition depends only on (workers, n, min) — never on
// scheduling — so the determinism contract of ForChunks is unchanged. A
// min below 1 is treated as 1.
func ForChunksMin(workers, n, min int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if min < 1 {
		min = 1
	}
	w := Resolve(workers)
	if w > n {
		w = n
	}
	rec := obs.ActiveRecorder()
	if w == 1 {
		runSerial(rec, n, fn)
		return
	}
	chunks := w * chunksPerWorker
	if chunks > n {
		chunks = n
	}
	if maxChunks := n / min; maxChunks > 0 && chunks > maxChunks {
		chunks = maxChunks
	}
	if w > chunks {
		w = chunks
	}
	if w == 1 {
		// The chunk-size floor collapsed the range to one chunk; run it
		// serially instead of spawning a single-goroutine pool.
		runSerial(rec, n, fn)
		return
	}
	if rec == nil && poolSize(w) == 1 {
		// The scheduler has a single P, so the pool could never run two
		// chunks concurrently, and with no flight recorder installed the
		// chunk layout is unobservable. Every body contract in this package
		// is partition-independent (disjoint writes, serial-order merges),
		// so one big chunk produces identical results with zero pool
		// overhead — this is what makes workers=N on a single-core machine
		// cost the same as workers=1 instead of strictly more.
		runSerial(nil, n, fn)
		return
	}
	runPool(rec, w, chunks, n, func(_, lo, hi int) { fn(lo, hi) })
}

// runSerial executes the whole range as one chunk on the calling goroutine,
// attributing it to worker 0 when a flight recorder is installed so
// pool-efficiency numbers stay comparable across worker counts.
func runSerial(rec *obs.Recorder, n int, fn func(lo, hi int)) {
	if rec == nil {
		fn(0, n)
		return
	}
	sw := obs.NewStopwatch()
	fn(0, n)
	busy := sw.ElapsedNS()
	rec.RecordChunk(0, 0, n, rec.NowNS()-busy, busy)
	rec.AddWorkerSpan(0, 1, int64(n), busy, 0, busy)
}

// poolSize caps the number of goroutines a pool actually spawns at
// GOMAXPROCS. The chunk partition is always computed from the logical
// worker count — so results, chunk layouts, and recorder events are
// identical whatever the machine — but goroutines beyond the scheduler's
// available parallelism can never run concurrently and only add spawn and
// handoff overhead.
func poolSize(w int) int {
	if p := runtime.GOMAXPROCS(0); w > p {
		return p
	}
	return w
}

// runPool is the one place pool goroutines are spawned: up to poolSize(w)
// workers claim the chunks of [0, n) through an atomic cursor and run
// body(c, lo, hi) for each claimed chunk c. When rec, the flight recorder
// installed at the call, is non-nil, the pool's goroutines count on its
// active-workers gauge while they run, and each worker additionally
// records its chunk spans and publishes busy/wait attribution — wait
// being everything in the worker's wall time outside chunk bodies (cursor
// claims, goroutine startup, the final drain), so busy + wait equals wall
// exactly. The recorded variant claims chunks through the same cursor in
// the same order; only clock reads are added.
func runPool(rec *obs.Recorder, w, chunks, n int, body func(c, lo, hi int)) {
	spawn := w
	if rec == nil {
		// With no flight recorder the per-worker attribution is
		// unobservable, so goroutines beyond the scheduler's parallelism
		// are pure overhead; recorded runs keep the full logical pool so
		// reports faithfully show the requested concurrency.
		spawn = poolSize(w)
		if spawn == 1 {
			// Drain the identical chunk partition on the calling
			// goroutine: same chunks, same outputs, no spawn cost.
			for c := 0; c < chunks; c++ {
				body(c, c*n/chunks, (c+1)*n/chunks)
			}
			return
		}
	} else {
		rec.AddActiveWorkers(int64(spawn))
		defer rec.AddActiveWorkers(-int64(spawn))
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(spawn)
	for g := 0; g < spawn; g++ {
		go func(worker int) {
			defer wg.Done()
			if rec == nil {
				for {
					c := int(cursor.Add(1)) - 1
					if c >= chunks {
						return
					}
					body(c, c*n/chunks, (c+1)*n/chunks)
				}
			}
			wallSW := obs.NewStopwatch()
			var nchunks, items, busy int64
			for {
				c := int(cursor.Add(1)) - 1
				if c >= chunks {
					break
				}
				lo, hi := c*n/chunks, (c+1)*n/chunks
				start := rec.NowNS()
				sw := obs.NewStopwatch()
				body(c, lo, hi)
				d := sw.ElapsedNS()
				rec.RecordChunk(worker, lo, hi, start, d)
				nchunks++
				items += int64(hi - lo)
				busy += d
			}
			wall := wallSW.ElapsedNS()
			rec.AddWorkerSpan(worker, nchunks, items, busy, wall-busy, wall)
		}(g)
	}
	wg.Wait()
}

// sumIntRange is the per-chunk integer reduction inner loop of SumInt.
//
//kshape:hotpath
func sumIntRange(lo, hi int, term func(i int) int) int {
	total := 0
	for i := lo; i < hi; i++ {
		//lint:ignore hotpath term is the caller-supplied kernel; the reduction loop itself stays allocation-free
		total += term(i)
	}
	return total
}

// SumInt returns the sum of term(i) for i in [0, n), evaluated in parallel.
// Integer addition is exact, so per-chunk partial sums are combined without
// any ordering concern.
func SumInt(workers, n int, term func(i int) int) int {
	if n <= 0 {
		return 0
	}
	if Resolve(workers) == 1 || n == 1 {
		return sumIntRange(0, n, term)
	}
	var total atomic.Int64
	ForChunks(workers, n, func(lo, hi int) {
		total.Add(int64(sumIntRange(lo, hi, term)))
	})
	return int(total.Load())
}

// extremeCandidate is one chunk's best (index, score) pair; idx -1 means
// the chunk selected nothing (empty range or all-NaN scores).
type extremeCandidate struct {
	idx int
	val float64
}

// scanExtreme is the ascending inner scan of MinIndex over one chunk,
// keeping the first strict improvement (ties toward the smaller index).
//
//kshape:hotpath
func scanExtreme(lo, hi int, score func(i int) float64) extremeCandidate {
	best := extremeCandidate{-1, math.Inf(1)}
	for i := lo; i < hi; i++ {
		//lint:ignore hotpath score is the caller-supplied kernel; the scan loop itself stays allocation-free
		if v := score(i); v < best.val {
			best = extremeCandidate{i, v}
		}
	}
	return best
}

// MinIndex returns the index in [0, n) minimizing score(i) together with
// that score, breaking ties toward the smaller index — exactly the result
// of a serial ascending scan keeping the first strict improvement. NaN
// scores are never selected; if no index scores below +Inf the result is
// (-1, +Inf). The outcome is identical for every worker count.
func MinIndex(workers, n int, score func(i int) float64) (argmin int, min float64) {
	inf := math.Inf(1)
	w := Resolve(workers)
	if n <= 0 {
		return -1, inf
	}
	if w == 1 || n == 1 {
		c := scanExtreme(0, n, score)
		return c.idx, c.val
	}
	if w > n {
		w = n
	}
	chunks := w * chunksPerWorker
	if chunks > n {
		chunks = n
	}
	partial := make([]extremeCandidate, chunks)
	runPool(obs.ActiveRecorder(), w, chunks, n, func(c, lo, hi int) { partial[c] = scanExtreme(lo, hi, score) })
	// Merge in chunk (hence index) order; strict comparison keeps the
	// smallest index on ties, matching the serial scan.
	best := extremeCandidate{-1, inf}
	for _, c := range partial {
		if c.idx >= 0 && c.val < best.val {
			best = c
		}
	}
	return best.idx, best.val
}
