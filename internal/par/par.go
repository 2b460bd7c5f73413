// Package par is the repository's shared parallel-execution substrate: a
// stdlib-only work-partitioning layer used by every compute-heavy loop in
// the codebase (distance-matrix construction, the k-Shape assignment and
// refinement steps, PAM cost scans, spectral affinity rows, 1-NN
// evaluation, and the experiment sweeps).
//
// It has one operation: run a body over disjoint contiguous chunks of
// [0, n). ForChunksMin is that operation and For its per-index form.
// The design goal is determinism: for a fixed input, every caller produces
// bit-for-bit identical results regardless of the worker count or
// goroutine scheduling. The rules that make this hold are:
//
//   - A body writes only to state addressed by its indices (out[i] =
//     f(i)); the write targets are disjoint, so scheduling order is
//     irrelevant.
//   - A reduction writes one slot per index under For and folds the
//     slots serially, in index order, after the loop returns.
//
// Work is scheduled dynamically: the index range is split into a few
// contiguous chunks per worker and goroutines claim chunks through an
// atomic cursor, which balances loops with heterogeneous per-index cost
// (triangular distance-matrix rows, uneven cluster sizes) without hurting
// the determinism contract above.
package par

import (
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
	ForChunksMin(workers, n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForChunksMin partitions [0, n) into contiguous half-open chunks [lo, hi)
// and invokes fn once per chunk, using at most Resolve(workers) concurrent
// goroutines. Chunks are disjoint, cover the full range exactly once, and
// hold at least min indices each unless the whole range is shorter than
// min; the floor caps worker-handoff overhead when the per-index work is
// small. Use it instead of For when the body wants per-chunk setup (a
// scratch buffer, a batched query) amortized over many indices. The
// partition depends only on (workers, n, min), never on scheduling. A min
// below 1 is treated as 1.
//
// When a flight recorder is installed (obs.SetRecorder), every worker
// additionally records its chunk spans and per-invocation attribution —
// chunks executed, items covered, busy time inside fn versus time waiting
// for work — without perturbing scheduling or results: the recorder only
// adds clock reads around chunk bodies. A recorded call spawns the full
// logical pool so reports show the requested concurrency. The serial path
// is attributed to worker 0 so pool-efficiency numbers stay comparable
// across worker counts.
func ForChunksMin(workers, n, min int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if min < 1 {
		min = 1
	}
	w := Resolve(workers)
	chunks := w * chunksPerWorker
	if chunks > n {
		chunks = n
	}
	if floor := max(n/min, 1); chunks > floor {
		chunks = floor
	}
	if w > chunks {
		w = chunks
	}
	rec := obs.ActiveRecorder()
	spawn := w
	if rec == nil {
		// Without a recorder the worker layout is unobservable, and every
		// body contract here is partition-independent, so goroutines the
		// scheduler cannot run concurrently are pure overhead: on a single
		// P this runs the whole range as one serial chunk.
		spawn = poolSize(w)
	}
	if spawn == 1 {
		runSerial(rec, n, fn)
		return
	}
	runPool(rec, spawn, chunks, n, fn)
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

// runPool is the one place pool goroutines are spawned: spawn workers
// claim the chunks of [0, n) through an atomic cursor and run fn(lo, hi)
// for each claimed chunk. When rec, the flight recorder installed at the
// call, is non-nil, the pool's goroutines count on its active-workers
// gauge while they run, and each worker additionally records its chunk
// spans and publishes busy/wait attribution — wait being everything in
// the worker's wall time outside chunk bodies (cursor claims, goroutine
// startup, the final drain), so busy + wait equals wall exactly.
func runPool(rec *obs.Recorder, spawn, chunks, n int, fn func(lo, hi int)) {
	if rec != nil {
		rec.AddActiveWorkers(int64(spawn))
		defer rec.AddActiveWorkers(-int64(spawn))
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(spawn)
	for g := 0; g < spawn; g++ {
		go func(worker int) {
			defer wg.Done()
			wallSW := obs.NewStopwatch()
			var nchunks, items, busy int64
			for {
				c := int(cursor.Add(1)) - 1
				if c >= chunks {
					break
				}
				lo, hi := c*n/chunks, (c+1)*n/chunks
				if rec == nil {
					fn(lo, hi)
					continue
				}
				start := rec.NowNS()
				sw := obs.NewStopwatch()
				fn(lo, hi)
				d := sw.ElapsedNS()
				rec.RecordChunk(worker, lo, hi, start, d)
				nchunks++
				items += int64(hi - lo)
				busy += d
			}
			if rec != nil {
				wall := wallSW.ElapsedNS()
				rec.AddWorkerSpan(worker, nchunks, items, busy, wall-busy, wall)
			}
		}(g)
	}
	wg.Wait()
}
