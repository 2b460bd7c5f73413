package dist

import (
	"math"
	"math/rand"
	"testing"

	"kshape/internal/ts"
)

// These allocation-regression tests pin the zero-allocation property of the
// steady-state batch SBD kernels: once a batch, query, and scratch exist,
// computing distances must not touch the heap. testing.AllocsPerRun runs
// the body on a single P, so the numbers are exact, not averages over
// scheduler noise; the pooled (AcquireScratch) paths are deliberately not
// asserted here because sync.Pool may legitimately refill after a GC.

func allocBatch(n, m int, seed int64) ([][]float64, *SBDBatch) {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, n)
	for i := range data {
		data[i] = ts.ZNormalize(randSeries(m, rng))
	}
	return data, NewSBDBatch(data)
}

// walk returns a z-normalized random walk of length m: shaped like the
// series 1-NN compares, with most of its energy in the low bins, where
// the phase bound bites (white noise spreads it over every bin).
func walk(m int, rng *rand.Rand) []float64 {
	x := randSeries(m, rng)
	for i := 1; i < m; i++ {
		x[i] += x[i-1]
	}
	return ts.ZNormalize(x)
}

// walkBatch is allocBatch over random walks.
func walkBatch(n, m int, seed int64) ([][]float64, *SBDBatch) {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, n)
	for i := range data {
		data[i] = walk(m, rng)
	}
	return data, NewSBDBatch(data)
}

func TestPairDistanceAllocFree(t *testing.T) {
	_, b := allocBatch(8, 128, 3)
	sc := b.Scratch()
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		b.PairDistance(i, (i+3)%b.Len(), sc)
		i = (i + 1) % b.Len()
	}); n != 0 {
		t.Errorf("PairDistance allocates %v per op, want 0", n)
	}
}

func TestQueryDistanceAllocFree(t *testing.T) {
	data, b := allocBatch(8, 128, 4)
	q := b.Query(data[0])
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		q.Distance(i)
		i = (i + 1) % b.Len()
	}); n != 0 {
		t.Errorf("Distance allocates %v per op, want 0", n)
	}
	sc := b.Scratch()
	if n := testing.AllocsPerRun(100, func() {
		q.DistanceScratch(i, sc)
		i = (i + 1) % b.Len()
	}); n != 0 {
		t.Errorf("DistanceScratch allocates %v per op, want 0", n)
	}
}

func TestQueryIntoNearestAllocFree(t *testing.T) {
	data, b := walkBatch(8, 128, 5)
	queries := make([][]float64, 4)
	rng := rand.New(rand.NewSource(6))
	for i := range queries {
		queries[i] = walk(128, rng)
	}
	q := b.Query(data[0]) // allocate the reusable buffers once
	i := 0
	if n := testing.AllocsPerRun(50, func() {
		q = b.QueryInto(q, queries[i%len(queries)])
		q.Nearest()
		i++
	}); n != 0 {
		t.Errorf("QueryInto+Nearest allocates %v per op, want 0", n)
	}
	skips := 0
	for _, x := range queries {
		q = b.QueryInto(q, x)
		q.Nearest()
		skips += phaseSkips(q)
	}
	if skips == 0 {
		t.Error("no candidate was skipped by the phase bound: its path did not run")
	}
}

// phaseSkips returns how many candidates the last searches of qs skipped
// by the phase bound: their row entry is neither their spectral bound,
// where the stored bound skipped them, nor their SBD, where they were
// evaluated.
func phaseSkips(qs ...*SBDQuery) int {
	n := 0
	for _, q := range qs {
		l1, sc := q.OneQueryLowerBounds(), q.batch.Scratch()
		for i, v := range q.lb {
			d, _ := q.DistanceScratch(i, sc)
			if math.Float64bits(v) != math.Float64bits(l1[i]) && math.Float64bits(v) != math.Float64bits(d) {
				n++
			}
		}
	}
	return n
}

// TestHeadTailBoundAllocFree pins the k-Shape scan's second filter at zero
// allocations: loading a series' side of the head-tail bound into the
// caller's SeriesHead, then bounding it against a query.
func TestHeadTailBoundAllocFree(t *testing.T) {
	data, b := allocBatch(8, 128, 7)
	var q QueryHead
	b.Query(data[1]).LoadHead(&q)
	tails := b.TailNorms()
	var h SeriesHead
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		b.LoadHead(i, tails[i], &h)
		HeadTailBound(&q, &h)
		i = (i + 1) % b.Len()
	}); n != 0 {
		t.Errorf("LoadHead+HeadTailBound allocates %v per op, want 0", n)
	}
}

func TestPairwiseIntoRowLoopAllocFree(t *testing.T) {
	// The inner row loop of PairwiseInto: one scratch serving a whole row
	// of pair distances, as each worker chunk runs it.
	_, b := allocBatch(10, 64, 7)
	out := make([][]float64, b.Len())
	for i := range out {
		out[i] = make([]float64, b.Len())
	}
	sc := b.Scratch()
	if n := testing.AllocsPerRun(20, func() {
		for i := 0; i < b.Len(); i++ {
			row := out[i]
			for j := i + 1; j < b.Len(); j++ {
				row[j], _ = b.PairDistance(i, j, sc)
			}
		}
	}); n != 0 {
		t.Errorf("pairwise row loop allocates %v per run, want 0", n)
	}
}

func TestSBDNearestBlockAllocFree(t *testing.T) {
	// One steady-state block of SBDNearest: forward transforms, the
	// reference-major bound pass and every query's evaluation, at each
	// block size from one query to a full block.
	_, b := walkBatch(8, 128, 8)
	rng := rand.New(rand.NewSource(9))
	queries := make([][]float64, nearestBlock)
	for i := range queries {
		queries[i] = walk(128, rng)
	}
	block, sc := b.newBlock(nearestBlock), b.Scratch()
	out := make([]int, nearestBlock)
	i := 0
	if n := testing.AllocsPerRun(50, func() {
		k := 1 + i%nearestBlock
		b.nearestInBlock(block[:k], queries[:k], out[:k], sc)
		i++
	}); n != 0 {
		t.Errorf("a block of SBDNearest allocates %v per run, want 0", n)
	}
	b.nearestInBlock(block, queries, out, sc)
	if phaseSkips(block...) == 0 {
		t.Error("no candidate was skipped by the phase bound: its path did not run")
	}
}
