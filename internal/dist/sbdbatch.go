package dist

import (
	"fmt"
	"math"
	"sync"

	"kshape/internal/fft"
	"kshape/internal/obs"
	"kshape/internal/par"
	"kshape/internal/ts"
)

// Cache-blocking floors for the batch loops: par's dynamic chunking is
// amortized over at least this many rows/queries per worker handoff, so a
// chunk claim (one atomic add plus a cache-line bounce) never dominates the
// O(m log m) kernel work inside it. Larger floors would under-split small
// inputs and starve the dynamic balancing on skewed loops.
const pairwiseMinRows = 2

// nearestBlock is the number of queries SBDNearest bounds in one
// reference-major pass (see lowerBounds): each reference's spectrum
// magnitudes are computed once per block instead of once per query.
const nearestBlock = 4

// phaseGrid is the number of lags, evenly spaced over one period, at
// which the phase bound evaluates the head's correlation (see Nearest);
// phaseMinLen is the shortest transform length it runs at, where the grid
// is at most half the lags. At l = phaseGrid the grid holds every lag, so
// its transform costs as much as the exact SBD it could skip.
const (
	phaseGrid   = 64
	phaseMinLen = 2 * phaseGrid
)

// SBDBatch precomputes the real-input (RFFT) half-spectra of a fixed
// collection of equal-length series so that repeated SBD computations
// against changing queries (the k-Shape assignment and alignment steps,
// where the data is fixed and only centroids move) need just one forward
// transform per query and one half-size inverse transform per pair, instead
// of three full-size FFTs per pair. Each cached spectrum holds only bins
// 0..l/2; the rest is the conjugate mirror.
//
// The precomputed spectra are read-only after construction, so one batch is
// shared by any number of goroutines; all mutable per-computation state
// lives in SBDScratch buffers (one per goroutine, pooled via
// AcquireScratch/ReleaseScratch) and in SBDQuery values.
type SBDBatch struct {
	m    int            // series length
	l    int            // padded transform length (power of two >= 2m-1)
	plan *fft.RFFT      // shared transform plan for length l
	spec [][]complex128 // RFFT(x_i) half-spectra, length l/2+1 each
	norm []float64      // ‖x_i‖
	grid *fft.RFFT      // the phase bound's phaseGrid-point plan; nil when l < phaseMinLen
	pool sync.Pool      // *SBDScratch, reused across chunks and iterations
}

// NewSBDBatch precomputes spectra for data. All series must share one
// length; the slice contents are captured by value (later mutation of the
// input arrays is not observed).
func NewSBDBatch(data [][]float64) *SBDBatch {
	if len(data) == 0 {
		return &SBDBatch{}
	}
	m := len(data[0])
	l := fft.NextPow2(2*m - 1)
	b := &SBDBatch{
		m:    m,
		l:    l,
		plan: fft.Plan(l),
		spec: make([][]complex128, len(data)),
		norm: make([]float64, len(data)),
	}
	if l >= phaseMinLen {
		b.grid = fft.Plan(phaseGrid)
	}
	work := make([]complex128, b.plan.WorkLen())
	// One slab holds every row: n separate rows would each round up to a
	// malloc size class (4112 B becomes 4864 B at m = 256).
	sl := b.plan.SpectrumLen()
	slab := make([]complex128, len(data)*sl)
	for i, x := range data {
		if len(x) != m {
			panic(fmt.Sprintf("dist: SBDBatch length mismatch at %d: %d vs %d", i, len(x), m))
		}
		spec := slab[i*sl : (i+1)*sl : (i+1)*sl]
		b.plan.Forward(x, spec, work)
		b.spec[i] = spec
		b.norm[i] = ts.Norm(x)
	}
	return b
}

// Len returns the number of series in the batch.
func (b *SBDBatch) Len() int { return len(b.spec) }

// SBDScratch holds the per-goroutine buffers of one in-flight SBD
// computation: the half-size transform workspace and the real correlation
// output (fft.RFFT.CrossCorrelate forms the spectral product itself), plus
// the head of the query a nearest search bounds by phase, whose grid
// transform runs in the front of the same two buffers. Scratches are tied
// to the batch geometry that created them and must not be shared between
// concurrent goroutines.
type SBDScratch struct {
	work []complex128 // l/2: RFFT internal workspace
	cc   []float64    // l: real cross-correlation, circularly laid out
	// head (phaseGrid/2+1, when the batch has a grid plan) holds Q_k for
	// the bins k < headBins and zeros above: the half-spectrum the phase
	// bound's grid transform correlates.
	head []complex128
}

// Scratch allocates a fresh buffer set usable with DistanceScratch and
// PairDistance. Each goroutine sharing one prepared query needs its own.
func (b *SBDBatch) Scratch() *SBDScratch {
	sc := &SBDScratch{
		work: make([]complex128, b.l/2),
		cc:   make([]float64, b.l),
	}
	if b.grid != nil {
		sc.head = make([]complex128, phaseGrid/2+1)
	}
	return sc
}

// AcquireScratch returns a scratch from the batch's internal pool (or a
// fresh one), for loops whose chunk bodies want allocation-free steady
// state without threading buffers through their callers. Pair it with
// ReleaseScratch.
func (b *SBDBatch) AcquireScratch() *SBDScratch {
	if sc, ok := b.pool.Get().(*SBDScratch); ok {
		return sc
	}
	return b.Scratch()
}

// ReleaseScratch returns a scratch obtained from AcquireScratch to the
// pool.
func (b *SBDBatch) ReleaseScratch(sc *SBDScratch) { b.pool.Put(sc) }

// SBDQuery holds the half-spectrum of one query series plus an owned
// scratch. One query is not safe for concurrent use through Distance or
// Nearest (they use the owned scratch), but its spectrum is read-only, so
// any number of goroutines may share it through DistanceScratch with their
// own buffers.
type SBDQuery struct {
	batch *SBDBatch
	spec  []complex128 // RFFT(q), not conjugated
	norm  float64
	own   *SBDScratch
	mag   []float64 // l/2+1: w_k·|Q_k|/l, filled by lowerBounds
	lb    []float64 // Len: the lower bound of SBD(q, x_i), filled by lowerBounds
	rest  []float64 // Len when the batch has a grid plan: the phase bound's tail and curvature terms
}

// Query prepares q (length m) for repeated distance computations against
// the batch.
func (b *SBDBatch) Query(q []float64) *SBDQuery { return b.QueryInto(nil, q) }

// QueryInto is Query writing into dst's buffers (allocating them only on
// first use, or when dst is nil or belongs to another batch): one forward
// transform and no allocations in steady state. It returns dst, so cached
// queries can be refreshed in place when a centroid changes:
//
//	queries[j] = batch.QueryInto(queries[j], centroids[j])
//
// Nearest's bound buffers are allocated on its first call, so a query
// that is never searched does not carry a row of Len bounds.
func (b *SBDBatch) QueryInto(dst *SBDQuery, q []float64) *SBDQuery {
	b.checkQuery(q)
	if dst == nil {
		dst = &SBDQuery{}
	}
	if dst.batch != b || dst.own == nil {
		*dst = SBDQuery{batch: b, spec: make([]complex128, b.plan.SpectrumLen()), own: b.Scratch()}
	}
	dst.prepare(q, dst.own)
	return dst
}

// checkQuery panics unless q has the batch's series length.
func (b *SBDBatch) checkQuery(q []float64) {
	if len(q) != b.m {
		panic(fmt.Sprintf("dist: SBDBatch query length %d, want %d", len(q), b.m))
	}
}

// setBounds gives s the bound buffers of lowerBounds: bound holds l/2+1
// values for mag, then Len for lb and, when the batch bounds by phase,
// Len for rest.
func (s *SBDQuery) setBounds(bound []float64) {
	sl, n := len(s.spec), s.batch.Len()
	s.mag, s.lb = bound[:sl:sl], bound[sl:sl+n:sl+n]
	if s.batch.grid != nil {
		s.rest = bound[sl+n:]
	}
}

// boundLen is the length of a query's bound buffers (see setBounds).
func (b *SBDBatch) boundLen() int {
	if b.grid != nil {
		return b.plan.SpectrumLen() + 2*len(b.spec)
	}
	return b.plan.SpectrumLen() + len(b.spec)
}

// ensureBounds allocates s's bound buffers unless it has them.
func (s *SBDQuery) ensureBounds() {
	if s.mag == nil {
		s.setBounds(make([]float64, s.batch.boundLen()))
	}
}

// newBlock allocates n (at most nearestBlock) queries of the batch for
// SBDNearest, without owned scratches: their spectra share one slab and
// their bound buffers another.
func (b *SBDBatch) newBlock(n int) []*SBDQuery {
	sl, row := b.plan.SpectrumLen(), b.boundLen()
	spec := make([]complex128, n*sl)
	bound := make([]float64, n*row)
	qs := make([]SBDQuery, n)
	block := make([]*SBDQuery, n)
	for j := range block {
		qs[j] = SBDQuery{batch: b, spec: spec[j*sl : (j+1)*sl : (j+1)*sl]}
		qs[j].setBounds(bound[j*row : (j+1)*row : (j+1)*row])
		block[j] = &qs[j]
	}
	return block
}

// prepare transforms q (of the batch's length) into s, using sc's
// workspace.
func (s *SBDQuery) prepare(q []float64, sc *SBDScratch) {
	s.batch.plan.Forward(q, s.spec, sc.work)
	s.norm = ts.Norm(q)
}

// Distance returns SBD(q, x_i) and the shift aligning x_i toward q
// (aligned x_i = ts.Shift(x_i, shift)), exactly matching SBD/Algorithm 1.
//
//kshape:hotpath
func (s *SBDQuery) Distance(i int) (dist float64, shift int) {
	return s.DistanceScratch(i, s.own)
}

// DistanceScratch is Distance computed in the caller-provided scratch,
// which lets multiple goroutines share one prepared query — the query's
// spectrum is only read — without repeating its forward transform.
//
//kshape:hotpath
func (s *SBDQuery) DistanceScratch(i int, sc *SBDScratch) (dist float64, shift int) {
	obs.Inc(obs.CounterSBD)
	b := s.batch
	den := s.norm * b.norm[i]
	if degenerate(den) {
		return 1, 0
	}
	b.plan.CrossCorrelate(s.spec, b.spec[i], sc.cc, sc.work)
	return scanCC(sc.cc[b.l-(b.m-1):], sc.cc[:b.m], den)
}

// Nearest returns the batch index minimizing SBD(q, x_i) together with
// that distance, breaking ties toward the smaller index — exactly the
// result of NNIndex over the same series, and bit for bit that of the
// unpruned ascending scan. Series whose SBD is NaN never win; a query
// whose SBD to every series is NaN yields (-1, +Inf). It uses the query's
// owned scratch.
//
// Nearest prunes with a spectral lower bound, SBD's analogue of LB_Keogh.
// The transform length l is at least 2m-1, so every lag's cross-
// correlation is one inverse-DFT coefficient, and the triangle inequality
// over the full spectrum gives
//
//	|CC_s(x, q)| ≤ (1/l)·Σ_k w_k·|X_k|·|Q_k|
//
// over the stored half-spectrum bins k = 0..l/2, with w_k = 1 at DC and
// Nyquist and 2 for the bins that stand for a conjugate pair. Dividing by
// ‖x‖‖q‖ gives LB = 1 − Σ_k w_k|X_k||Q_k| / (l·‖x‖‖q‖) ≤ SBD(x, q); LB is 1
// (equal to SBD) when the denominator is degenerate. Each bound costs
// l/2+1 magnitudes of the cached spectrum and multiply-adds, against an
// inverse transform and a lag scan for an exact SBD.
//
// That bound lines every bin's phase up at one lag. At l ≥ phaseMinLen a
// candidate the stored bound does not prune meets a tighter one, the
// phase bound, before its exact SBD: the headBins lowest bins, where
// shaped series keep most of their energy, keep their phases. With
// P_k = Q_k·conj(X_k), head H = {k < headBins}, Δ = l/phaseGrid and c_H(t)
// = (1/l)·Σ_{k∈H} w_k·Re(P_k·e^{2πikt/l}) the head's correlation at real
// lag t,
//
//	max_s CC_s ≤ max_j c_H(jΔ) + Σ_{k∈H} κ_k·w_k|X_k||Q_k|/l + Σ_{k∉H} w_k|X_k||Q_k|/l
//
// with κ_k = (Δ²/8)·(2πk/l)² = π²k²/(2·phaseGrid²). c_H is a trigonometric
// polynomial: at its maximiser its derivative is zero and a grid point
// lies within Δ/2, so the curvature term covers the gap; the tail is the
// triangle inequality. The grid values are one phaseGrid-point
// CrossCorrelate of the query's head against the cached spectrum, scaled
// by phaseGrid/l (the head stops below the grid's Nyquist bin, so nothing
// aliases). LB = 1 − that/(‖x‖‖q‖) ≤ SBD(x, q), and Scan.Skip skips the
// pair when it clears the limit by ScanMargin.
//
// Nearest bounds a block of one in SBDNearest's bound pass (lowerBounds),
// so its bounds and pruning are the same bits either way, then runs a Scan
// over them and adds the skipped pairs to obs.CounterSBDPruned. A query or
// series whose norm lies outside [minBoundNorm, maxBoundNorm] gets no
// bound (−Inf) and no phase bound: its squared spectrum magnitudes could
// leave float64's range.
//
//kshape:hotpath
func (s *SBDQuery) Nearest() (idx int, dist float64) {
	//lint:ignore hotpath the first search allocates the query's bound buffers; later ones reuse them
	s.ensureBounds()
	block := [1]*SBDQuery{s}
	s.batch.lowerBounds(block[:], s.own)
	return s.nearest(s.own)
}

// nearest is Nearest's evaluation after the bound pass has filled s.lb
// (and s.rest): a Scan seeded with the smallest bound (the first on ties),
// in which each other candidate meets the phase bound before its exact
// SBD, computed in sc.
//
//kshape:hotpath
func (s *SBDQuery) nearest(sc *SBDScratch) (idx int, dist float64) {
	seed := 0
	for i, lb := range s.lb {
		if lb < s.lb[seed] {
			seed = i
		}
	}
	b := s.batch
	phase := s.loadHead(sc)
	var scan Scan
	scan.Reset(s.lb, seed, false)
	for i, ok := scan.Next(); ok; i, ok = scan.Next() {
		if phase && i != seed && boundable(b.norm[i]) && scan.Skip(s.phaseBound(i, sc)) {
			continue
		}
		scan.Offer(s.DistanceScratch(i, sc))
	}
	obs.Add(obs.CounterSBDPruned, int64(scan.Pruned))
	idx, dist, _, _ = scan.Result()
	return idx, dist
}

// loadHead copies the query's head bins into sc.head for phaseBound and
// reports whether the query bounds by phase: the batch has a grid plan
// and the query's norm lies in the bound's range.
//
//kshape:hotpath
func (s *SBDQuery) loadHead(sc *SBDScratch) bool {
	if s.batch.grid == nil || !boundable(s.norm) {
		return false
	}
	copy(sc.head[:headBins], s.spec)
	return true
}

// phaseBound returns the phase bound of SBD(q, x_i) (see Nearest), after
// loadHead into sc has reported true and lowerBounds has filled s.rest,
// for a series whose norm lies in the bound's range. It runs one
// phaseGrid-point CrossCorrelate in the front of sc's buffers; the head's
// bins past headBins are zero, so only x_i's first phaseGrid/2+1 bins
// matter.
//
//kshape:hotpath
func (s *SBDQuery) phaseBound(i int, sc *SBDScratch) float64 {
	b := s.batch
	grid := sc.cc[:phaseGrid]
	b.grid.CrossCorrelate(sc.head, b.spec[i], grid, sc.work)
	top, _ := laneMax(grid)
	return 1 - (top*(phaseGrid/float64(b.l))+s.rest[i])/(s.norm*b.norm[i])
}

// kappa holds the phase bound's curvature factors κ_k = π²k²/(2·phaseGrid²)
// for the head bins (see Nearest).
var kappa = func() (kappa [headBins]float64) {
	for k := range kappa {
		kappa[k] = math.Pi * math.Pi * float64(k*k) / (2 * phaseGrid * phaseGrid)
	}
	return kappa
}()

// The phase bound's head must stop below its grid's Nyquist bin, so the
// grid transform neither aliases nor halves a head bin: this fails to
// compile otherwise.
var _ = [1]struct{}{}[headBins/(phaseGrid/2)]

// minBoundNorm and maxBoundNorm bound the norms for which Nearest trusts
// its spectral lower bound: inside them no squared spectrum magnitude or
// product of magnitudes leaves float64's normal range.
const (
	minBoundNorm = 1e-100
	maxBoundNorm = 1e100
)

// lowerBounds fills q.lb, for each query q of one block (1 to
// nearestBlock queries of this batch, the batch non-empty), with the
// spectral lower bound of SBD(q, x_i) for every batch series (see
// Nearest), and, when the batch bounds by phase, q.rest with the phase
// bound's tail and curvature terms. The pass is reference-major: each
// series' magnitudes |X_k| are computed once per block, into sc.cc (the
// exact SBDs overwrite it only after the pass), and feed one independent
// accumulator per block slot. Every accumulator adds w_k·|Q_k|/l · |X_k|
// in ascending k, so a query's bounds are the same bits in a block of any
// size; the tail is the accumulator's growth past the head bins. Slots
// past the block's end read block[0]'s magnitudes, and a query without a
// bound reads stale ones; both sums are discarded.
//
//kshape:hotpath
func (b *SBDBatch) lowerBounds(block []*SBDQuery, sc *SBDScratch) {
	scale := 1 / float64(b.l)
	phase := b.grid != nil
	anyBound := false
	for _, q := range block {
		if !boundable(q.norm) {
			continue
		}
		anyBound = true
		for k, c := range q.spec {
			w := 2 * scale
			if k == 0 || k == b.l/2 {
				w = scale
			}
			q.mag[k] = w * math.Sqrt(real(c)*real(c)+imag(c)*imag(c))
		}
	}
	xmag := sc.cc[:len(block[0].mag)]
	var slot [nearestBlock]*SBDQuery
	for j := range slot {
		slot[j] = block[0]
		if j < len(block) {
			slot[j] = block[j]
		}
	}
	n := len(xmag)
	h := min(headBins, n)
	m0, m1, m2, m3 := slot[0].mag[:n], slot[1].mag[:n], slot[2].mag[:n], slot[3].mag[:n]
	var sum, rest [nearestBlock]float64
	for i, xs := range b.spec {
		xBound := anyBound && boundable(b.norm[i])
		if xBound {
			for k, c := range xs[:n] {
				xmag[k] = math.Sqrt(real(c)*real(c) + imag(c)*imag(c))
			}
			var s0, s1, s2, s3 float64
			for k, x := range xmag[:h] {
				s0 += m0[k] * x
				s1 += m1[k] * x
				s2 += m2[k] * x
				s3 += m3[k] * x
			}
			h0, h1, h2, h3 := s0, s1, s2, s3
			t0, t1, t2, t3 := m0[h:], m1[h:], m2[h:], m3[h:]
			for k, x := range xmag[h:] {
				s0 += t0[k] * x
				s1 += t1[k] * x
				s2 += t2[k] * x
				s3 += t3[k] * x
			}
			sum = [nearestBlock]float64{s0, s1, s2, s3}
			if phase {
				var k0, k1, k2, k3 float64
				for k, x := range xmag[:headBins] {
					kx := kappa[k] * x
					k0 += m0[k] * kx
					k1 += m1[k] * kx
					k2 += m2[k] * kx
					k3 += m3[k] * kx
				}
				rest = [nearestBlock]float64{(s0 - h0) + k0, (s1 - h1) + k1, (s2 - h2) + k2, (s3 - h3) + k3}
			}
		}
		for j, q := range block {
			den := q.norm * b.norm[i]
			lb := math.Inf(-1)
			switch {
			case degenerate(den):
				lb = 1
			case xBound && boundable(q.norm):
				lb = 1 - sum[j]/den
				if phase {
					q.rest[i] = rest[j]
				}
			}
			q.lb[i] = lb
		}
	}
}

// lowerBounds' sweep is unrolled to one accumulator per block slot: this
// fails to compile unless nearestBlock is 4.
var _ = [1]struct{}{}[nearestBlock-4]

// boundable reports whether a norm lies in the range where Nearest's
// spectral lower bound is computed without underflow or overflow.
//
//kshape:hotpath
func boundable(norm float64) bool { return norm >= minBoundNorm && norm <= maxBoundNorm }

// headBins is the number of low-frequency bins HeadTailBound takes one
// by one; the bins above them form its tail.
const headBins = 16

// QueryHead is a query's side of HeadTailBound, filled by
// SBDQuery.LoadHead: w_k·|Q_k|/l for the head bins k < headBins (0 past
// the spectrum), the tail norm √(Σ_{k≥headBins} w_k·|Q_k|²)/l, and ‖q‖.
type QueryHead struct {
	mag        [headBins]float64
	tail, norm float64
}

// SeriesHead is a batch series' side of HeadTailBound, filled by
// SBDBatch.LoadHead: |X_k| for the head bins (0 past the spectrum), the
// tail norm √(Σ_{k≥headBins} w_k·|X_k|²) (from TailNorms), and ‖x‖.
type SeriesHead struct {
	mag        [headBins]float64
	tail, norm float64
}

// LoadHead fills h with the query's side of HeadTailBound.
func (s *SBDQuery) LoadHead(h *QueryHead) {
	b := s.batch
	scale := 1 / float64(b.l)
	h.mag = [headBins]float64{}
	for k, c := range s.spec[:min(len(s.spec), headBins)] {
		w := 2 * scale
		if k == 0 || k == b.l/2 {
			w = scale
		}
		h.mag[k] = w * math.Sqrt(real(c)*real(c)+imag(c)*imag(c))
	}
	h.tail = math.Sqrt(tailEnergy(s.spec)) * scale
	h.norm = s.norm
}

// TailNorms returns the tail norm of every batch series, its share of
// HeadTailBound that depends on the series alone.
func (b *SBDBatch) TailNorms() []float64 {
	out := make([]float64, len(b.spec))
	for i, xs := range b.spec {
		out[i] = math.Sqrt(tailEnergy(xs))
	}
	return out
}

// tailEnergy returns Σ_{k≥headBins} w_k·|c_k|² over a half-spectrum
// spec (bins 0..l/2): the bins below Nyquist stand for conjugate pairs
// (w_k = 2) and the last bin, Nyquist, for itself (w_k = 1). At m = 512
// a tail is about 500 bins, so the sum runs in four independent
// accumulators rather than one latency-bound chain.
func tailEnergy(spec []complex128) float64 {
	if len(spec) <= headBins {
		return 0
	}
	pairs, nyq := spec[headBins:len(spec)-1], spec[len(spec)-1]
	var e0, e1, e2, e3 float64
	n := len(pairs) &^ 3
	for k := 0; k < n; k += 4 {
		c0, c1, c2, c3 := pairs[k], pairs[k+1], pairs[k+2], pairs[k+3]
		e0 += real(c0)*real(c0) + imag(c0)*imag(c0)
		e1 += real(c1)*real(c1) + imag(c1)*imag(c1)
		e2 += real(c2)*real(c2) + imag(c2)*imag(c2)
		e3 += real(c3)*real(c3) + imag(c3)*imag(c3)
	}
	for _, c := range pairs[n:] {
		e0 += real(c)*real(c) + imag(c)*imag(c)
	}
	return 2*((e0+e1)+(e2+e3)) + real(nyq)*real(nyq) + imag(nyq)*imag(nyq)
}

// LoadHead fills h with series i's side of HeadTailBound; tail is the
// series' entry of TailNorms.
//
//kshape:hotpath
func (b *SBDBatch) LoadHead(i int, tail float64, h *SeriesHead) {
	xs := b.spec[i]
	n := min(len(xs), headBins)
	for k, c := range xs[:n] {
		h.mag[k] = math.Sqrt(real(c)*real(c) + imag(c)*imag(c))
	}
	clear(h.mag[n:])
	h.tail, h.norm = tail, b.norm[i]
}

// HeadTailBound returns a lower bound on SBD(q, x) from the query's and
// the series' heads, cheaper than Nearest's bound when the series'
// magnitudes are not at hand: it splits Nearest's sum
// Σ_k w_k·|X_k|·|Q_k| into the headBins lowest bins, summed term by term,
// and the tail above them, bounded by Cauchy–Schwarz:
//
//	|CC_s(x, q)| ≤ (1/l)·[Σ_{k<16} w_k|X_k||Q_k| + √(Σ_{k≥16} w_k|X_k|²)·√(Σ_{k≥16} w_k|Q_k|²)]
//
// so LB = 1 − that/(‖x‖‖q‖) ≤ SBD(x, q), and LB is at most Nearest's
// bound for the same pair. The weights, the degenerate rule (LB = 1) and
// the norm range (−Inf outside [minBoundNorm, maxBoundNorm]) are
// Nearest's. Per pair it costs headBins multiply-adds, in four
// independent sums, and one division.
//
//kshape:hotpath
func HeadTailBound(q *QueryHead, x *SeriesHead) float64 {
	den := q.norm * x.norm
	switch {
	case degenerate(den):
		return 1
	case !boundable(q.norm) || !boundable(x.norm):
		return math.Inf(-1)
	}
	qm, xm := &q.mag, &x.mag
	var s0, s1, s2, s3 float64
	for k := 0; k < headBins; k += 4 {
		s0 += qm[k] * xm[k]
		s1 += qm[k+1] * xm[k+1]
		s2 += qm[k+2] * xm[k+2]
		s3 += qm[k+3] * xm[k+3]
	}
	return 1 - ((s0+s1)+(s2+s3)+q.tail*x.tail)/den
}

// HeadTailBound's sum is unrolled to four accumulators: this fails to
// compile unless headBins is a multiple of 4.
var _ = [1]struct{}{}[headBins%4]

// PairDistance returns SBD(x_i, x_j) between two cached series and the
// shift aligning x_j toward x_i, without any forward transform: one
// CrossCorrelate of the two cached half-spectra.
//
//kshape:hotpath
func (b *SBDBatch) PairDistance(i, j int, sc *SBDScratch) (dist float64, shift int) {
	obs.Inc(obs.CounterSBD)
	den := b.norm[i] * b.norm[j]
	if degenerate(den) {
		return 1, 0
	}
	b.plan.CrossCorrelate(b.spec[i], b.spec[j], sc.cc, sc.work)
	return scanCC(sc.cc[b.l-(b.m-1):], sc.cc[:b.m], den)
}

// scanCC finds the maximum of a cross-correlation over the valid lags
// -(m-1)..m-1, given as the run neg of the m-1 negative lags (most
// negative first) and the run pos of the m non-negative ones, and converts
// it to (distance, shift). The result is that of visiting the lags in
// ascending order with a strict comparison: ties go to the most negative
// lag, NaN never wins, and the lag is 0 when no value exceeds −Inf. Every
// SBD path uses it.
//
//kshape:hotpath
func scanCC(neg, pos []float64, den float64) (float64, int) {
	best, bestLag := math.Inf(-1), 0
	if v, i := laneMax(neg); v > best {
		best, bestLag = v, i-len(neg)
	}
	if v, i := laneMax(pos); v > best {
		best, bestLag = v, i
	}
	return 1 - best/den, bestLag
}

// laneMax returns the largest value of v above −Inf and its first index,
// or (−Inf, -1) when there is none. It scans v in four independent lanes
// (index mod 4), each keeping its first strict maximum, so the four
// compare chains overlap. Each lane visits its indices in ascending order,
// so combining the lanes by the larger value, ties to the smaller index,
// gives exactly the one-lane scan's first maximum.
//
//kshape:hotpath
func laneMax(v []float64) (float64, int) {
	b0, b1, b2, b3 := math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)
	i0, i1, i2, i3 := -1, -1, -1, -1
	n := len(v) &^ 3
	for i := 0; i < n; i += 4 {
		x0, x1, x2, x3 := v[i], v[i+1], v[i+2], v[i+3]
		if x0 > b0 {
			b0, i0 = x0, i
		}
		if x1 > b1 {
			b1, i1 = x1, i+1
		}
		if x2 > b2 {
			b2, i2 = x2, i+2
		}
		if x3 > b3 {
			b3, i3 = x3, i+3
		}
	}
	// The at most three tail values join lane 0 after its other values.
	for i := n; i < len(v); i++ {
		if v[i] > b0 {
			b0, i0 = v[i], i
		}
	}
	b0, i0 = maxFirst(b0, i0, b1, i1)
	b2, i2 = maxFirst(b2, i2, b3, i3)
	return maxFirst(b0, i0, b2, i2)
}

// maxFirst returns the larger of two lane maxima, the one with the smaller
// index on a tie. Lane maxima are never NaN.
func maxFirst(a float64, ai int, b float64, bi int) (float64, int) {
	//lint:ignore floatcmp an exact tie goes to the smaller index, as in the one-lane scan
	if b > a || (b == a && bi < ai) {
		return b, bi
	}
	return a, ai
}

// PairwiseInto fills the preallocated n×n matrix out (n = Len) with all
// pairwise SBD distances from the cached spectra: one half-size inverse
// transform per upper-triangle pair and zero allocations in steady state
// (per-worker scratch comes from the batch pool). Rows are distributed
// dynamically with a cache-blocked floor of pairwiseMinRows rows per chunk;
// the result is identical for every worker count.
func (b *SBDBatch) PairwiseInto(out [][]float64, workers int) {
	n := len(b.spec)
	if par.Resolve(workers) == 1 && obs.ActiveRecorder() == nil {
		// Serial fast path: dispatching through ForChunksMin would heap-
		// allocate the chunk closure on every build (it escapes into the
		// worker-pool branch), which is the one allocation between a
		// prepared batch and a zero-alloc steady state. With no flight
		// recorder installed there is no chunk attribution to record, so
		// the inline loop is observationally identical.
		sc := b.AcquireScratch()
		b.pairwiseRows(out, 0, n, sc)
		b.ReleaseScratch(sc)
	} else {
		par.ForChunksMin(workers, n, pairwiseMinRows, func(lo, hi int) {
			sc := b.AcquireScratch()
			b.pairwiseRows(out, lo, hi, sc)
			b.ReleaseScratch(sc)
		})
	}
	// Mirror the upper triangle (the diagonal stays zero).
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			out[i][j] = out[j][i]
		}
	}
}

// pairwiseRows fills the upper-triangle entries of rows [lo, hi).
//
//kshape:hotpath
func (b *SBDBatch) pairwiseRows(out [][]float64, lo, hi int, sc *SBDScratch) {
	n := len(b.spec)
	for i := lo; i < hi; i++ {
		row := out[i]
		for j := i + 1; j < n; j++ {
			row[j], _ = b.PairDistance(i, j, sc)
		}
	}
}

// SBDNearest returns, for every query, the index of its nearest series in
// refs under SBD (ties toward the smaller index, matching NNIndex), using
// one spectrum cache over refs. A chunk, at least one block, bounds its
// queries in blocks of nearestBlock (lowerBounds) that share one
// evaluation scratch, and evaluates each as SBDQuery.Nearest does, phase
// bounds included, with the same indices, distances and pruned counts.
// Each evaluated pair costs one inverse transform, and at l ≥ 128 each
// phase bound one 64-point inverse. A query whose SBD to
// every reference is NaN gets -1, and with empty refs every result is -1.
// The result is identical for every worker count.
func SBDNearest(refs, queries [][]float64, workers int) []int {
	out := make([]int, len(queries))
	if len(refs) == 0 {
		for i := range out {
			out[i] = -1
		}
		return out
	}
	b := NewSBDBatch(refs)
	for _, q := range queries {
		b.checkQuery(q)
	}
	par.ForChunksMin(workers, len(queries), nearestBlock, func(lo, hi int) {
		sc := b.AcquireScratch()
		block := b.newBlock(min(nearestBlock, hi-lo))
		for ; lo < hi; lo += nearestBlock {
			n := min(nearestBlock, hi-lo)
			b.nearestInBlock(block[:n], queries[lo:lo+n], out[lo:lo+n], sc)
		}
		b.ReleaseScratch(sc)
	})
	return out
}

// nearestInBlock sets out[j] to the nearest batch series of queries[j] for
// a block of up to nearestBlock queries: it prepares them into block, runs
// one bound pass and evaluates each query in sc.
func (b *SBDBatch) nearestInBlock(block []*SBDQuery, queries [][]float64, out []int, sc *SBDScratch) {
	for j, q := range block {
		q.prepare(queries[j], sc)
	}
	b.lowerBounds(block, sc)
	for j, q := range block {
		out[j], _ = q.nearest(sc)
	}
}
