package testkit

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"kshape/internal/avg"
	"kshape/internal/core"
	"kshape/internal/dist"
	"kshape/internal/fft"
	"kshape/internal/linalg"
	"kshape/internal/obs"
	"kshape/internal/ts"
)

// OraclePair pairs an optimized kernel with a slow, obviously-correct
// reference implementation. Run draws one batch of cases from g, evaluates
// both sides, and returns a descriptive error on the first disagreement
// beyond Tol (Tol == 0 demands bit-for-bit equality — the contract of the
// deterministic parallel layer and of copy-vs-in-place transforms).
type OraclePair struct {
	Name string
	Doc  string
	Tol  float64
	Run  func(g *Gen) error
}

// Pairs returns the full oracle registry. Every optimized code path in the
// tree — FFT cross-correlation, the three SBD variants, the shared-spectra
// batch and its bound-pruned 1-NN, banded rolling-row DTW, LB_Keogh, power iteration, shape
// extraction, the pruned k-Shape step, and each parallel reduction — has
// an entry here; the differential test drives each entry across many
// seeds.
func Pairs() []OraclePair {
	return []OraclePair{
		{
			Name: "fft/roundtrip",
			Doc:  "the shared per-length plan fft.Plan(n) round-trips the zero-padded real input",
			Tol:  DefaultTol,
			Run:  func(g *Gen) error { return runRFFTRoundTrip(g, fft.Plan) },
		},
		{
			Name: "fft/crosscorrelate-vs-direct",
			Doc:  "RFFT.Correlate on the shared plan matches the direct O(m²) definition (Eq. 12)",
			Tol:  DefaultTol,
			Run:  runCrossCorrelate,
		},
		{
			Name: "fft/rfft-roundtrip",
			Doc:  "RFFT CrossCorrelate(Forward(x), 1) reproduces the zero-padded real input",
			Tol:  DefaultTol,
			Run:  func(g *Gen) error { return runRFFTRoundTrip(g, fft.NewRFFT) },
		},
		{
			Name: "fft/rfft-vs-complex",
			Doc:  "RFFT half-spectrum matches the direct O(n²) DFT bin by bin",
			Tol:  DefaultTol,
			Run:  runRFFTVsComplex,
		},
		{
			Name: "fft/rfft-ncc-vs-direct",
			Doc:  "cross-correlation assembled from RFFT spectra matches the direct O(m²) definition",
			Tol:  DefaultTol,
			Run:  runRFFTCrossCorrelate,
		},
		{
			Name: "sbd/fft-vs-reference",
			Doc:  "optimized SBD (pow2-padded FFT) matches the direct NCCc maximum (Eq. 9)",
			Tol:  DefaultTol,
			Run:  func(g *Gen) error { return runSBDVariant(g, "SBD", dist.SBD) },
		},
		{
			Name: "sbd/nopow2-vs-reference",
			Doc:  "SBD_NoPow2 (longer FFT) matches the direct NCCc maximum",
			Tol:  DefaultTol,
			Run:  func(g *Gen) error { return runSBDVariant(g, "SBDNoPow2", dist.SBDNoPow2) },
		},
		{
			Name: "sbd/nofft-vs-reference",
			Doc:  "SBD_NoFFT (naive correlation) matches the direct NCCc maximum",
			Tol:  DefaultTol,
			Run:  func(g *Gen) error { return runSBDVariant(g, "SBDNoFFT", dist.SBDNoFFT) },
		},
		{
			Name: "sbdbatch/batch-vs-pairwise",
			Doc:  "shared-spectra SBDBatch distances and shifts match per-pair SBD",
			Tol:  DefaultTol,
			Run:  runSBDBatch,
		},
		{
			Name: "sbdbatch/pairwise-and-nn",
			Doc:  "batch PairwiseInto and SBDNearest match per-pair SBD/NNIndex, worker-count independent",
			Tol:  DefaultTol,
			Run:  runSBDBatchPairwiseNN,
		},
		{
			Name: "sbdbatch/lb-prune-exact",
			Doc:  "SBDNearest pruned by the spectral lower bound returns the unpruned DistanceScratch scan's index and distance bits on degenerate-heavy input, at every worker count",
			Tol:  0,
			Run:  runSBDNearestPruned,
		},
		{
			Name: "dtw/rolling-vs-fullmatrix",
			Doc:  "rolling two-row banded cDTW matches an independent full-matrix DP",
			Tol:  DefaultTol,
			Run:  runDTWFullMatrix,
		},
		{
			Name: "dtw/warpingpath-consistency",
			Doc:  "WarpingPath stays in band, uses valid steps, and its cost equals CDTW",
			Tol:  DefaultTol,
			Run:  runWarpingPath,
		},
		{
			Name: "lbkeogh/bound-chain",
			Doc:  "LB_Keogh <= cDTW(w), DTW <= cDTW(w) <= ED, envelopes bracket the series",
			Tol:  DefaultTol,
			Run:  runBoundChain,
		},
		{
			Name: "eigen/power-vs-ql",
			Doc:  "Gram power iteration, on K = AAᵀ or M = AᵀA, matches Householder+QL in value, vector and residual ≤1e-9·λ on PSD spectra with λ₂/λ₁ up to 0.9",
			Tol:  DefaultTol,
			Run:  runEigen,
		},
		{
			Name: "shape/power-vs-ql",
			Doc:  "shape extraction, on clusters narrower and wider than m and near-degenerate shifted sines, matches a dense Gram + full-decomposition rebuild",
			Tol:  DefaultTol,
			Run:  runShapeExtraction,
		},
		{
			Name: "core/kshape-vs-lloyd",
			Doc:  "KShapeRun (cached spectra, settled skip, reused shifts, drift-bound pruning) equals Lloyd with SBD and ShapeExtraction bit for bit, result and OnIteration trajectory (timings excluded), at every worker count",
			Tol:  0,
			Run:  runKShapeVsLloyd,
		},
		{
			Name: "pairwise/serial-vs-parallel",
			Doc:  "PairwiseMatrixWorkers is bit-identical across worker counts and symmetric",
			Tol:  0,
			Run:  runPairwise,
		},
		{
			Name: "ts/znorm-copy-vs-inplace",
			Doc:  "ZNormalize and ZNormalizeInPlace agree bit-for-bit and satisfy IsZNormalized",
			Tol:  0,
			Run:  runZNorm,
		},
	}
}

// --- independent reference implementations -------------------------------

// refCrossCorrelate is the textbook O(len(x)·len(y)) cross-correlation with
// the package's lag convention: out[w] = Σ_l x[l+lag]·y[l], lag = w-(len(y)-1).
// It is written from the definition, independently of fft.CrossCorrelateNaive.
func refCrossCorrelate(x, y []float64) []float64 {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	out := make([]float64, len(x)+len(y)-1)
	for w := range out {
		lag := w - (len(y) - 1)
		acc := 0.0
		for l, yv := range y {
			xi := l + lag
			if xi >= 0 && xi < len(x) {
				acc += x[xi] * yv
			}
		}
		out[w] = acc
	}
	return out
}

// refDFT is the direct O(n²) DFT of the real input x zero-padded to n,
// bins 0..n/2 (the half-spectrum an RFFT plan produces).
func refDFT(x []float64, n int) []complex128 {
	out := make([]complex128, n/2+1)
	for k := range out {
		var re, im float64
		for r, v := range x {
			ang := -2 * math.Pi * float64(r*k%n) / float64(n)
			re += v * math.Cos(ang)
			im += v * math.Sin(ang)
		}
		out[k] = complex(re, im)
	}
	return out
}

// refSBD computes the shape-based distance from the definition: the direct
// cross-correlation sequence, normalized by the norms' product, maximized by
// a first-strict-improvement scan. The degenerate zero-norm convention
// (dist 1) mirrors the optimized path.
func refSBD(x, y []float64) float64 {
	m := len(x)
	if m == 0 {
		return 0
	}
	// Norms are multiplied (not sqrt of the product of squared norms) so the
	// reference stays finite for tiny norms where Dot·Dot would underflow.
	den := ts.Norm(x) * ts.Norm(y)
	if den <= 0 {
		return 1
	}
	cc := refCrossCorrelate(x, y)
	best := math.Inf(-1)
	for _, v := range cc {
		if v > best {
			best = v
		}
	}
	return 1 - best/den
}

// refDTW computes banded DTW over the full (n+1)×(m+1) cost matrix — the
// memory-hungry formulation the rolling-row CDTW optimizes away. window < 0
// means unconstrained.
func refDTW(x, y []float64, window int) float64 {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		if n == m {
			return 0
		}
		return math.Inf(1)
	}
	w := window
	if w < 0 {
		w = n
		if m > w {
			w = m
		}
	}
	inf := math.Inf(1)
	cost := make([][]float64, n+1)
	for i := range cost {
		cost[i] = make([]float64, m+1)
		for j := range cost[i] {
			cost[i][j] = inf
		}
	}
	cost[0][0] = 0
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			if j < i-w || j > i+w {
				continue
			}
			best := cost[i-1][j-1]
			if cost[i-1][j] < best {
				best = cost[i-1][j]
			}
			if cost[i][j-1] < best {
				best = cost[i][j-1]
			}
			d := x[i-1] - y[j-1]
			cost[i][j] = d*d + best
		}
	}
	return math.Sqrt(cost[n][m])
}

// --- oracle runners ------------------------------------------------------

func runCrossCorrelate(g *Gen) error {
	x := g.Series(g.LenAtMost(100))
	y := g.Series(g.LenAtMost(100))
	got := fft.Plan(fft.NextPow2(len(x)+len(y)-1)).Correlate(x, y)
	want := refCrossCorrelate(x, y)
	return CheckSlice(fmt.Sprintf("Correlate(len %d, %d)", len(x), len(y)), got, want, DefaultTol)
}

// rfftSizes spans degenerate plans through several butterfly stages.
var rfftSizes = []int{1, 2, 4, 16, 64, 256}

// runRFFTRoundTrip round-trips a real input through the plan of a random
// size obtained from plan (a fresh one or the shared one): Forward, then
// CrossCorrelate against an all-ones spectrum, the plain inverse.
func runRFFTRoundTrip(g *Gen, plan func(n int) *fft.RFFT) error {
	n := rfftSizes[g.Intn(len(rfftSizes))]
	// Input lengths below the transform length exercise the zero-padding.
	x := g.Series(1 + g.Intn(n))
	p := plan(n)
	spec := make([]complex128, p.SpectrumLen())
	ones := make([]complex128, p.SpectrumLen())
	work := make([]complex128, p.WorkLen())
	out := make([]float64, n)
	p.Forward([]float64{1}, ones, work) // a unit impulse's spectrum is all ones
	p.Forward(x, spec, work)
	p.CrossCorrelate(spec, ones, out, work)
	for i := range out {
		want := 0.0
		if i < len(x) {
			want = x[i]
		}
		if !Close(out[i], want, DefaultTol) {
			return fmt.Errorf("rfft roundtrip n=%d inLen=%d: index %d got %v, want %v", n, len(x), i, out[i], want)
		}
	}
	return nil
}

func runRFFTVsComplex(g *Gen) error {
	n := rfftSizes[g.Intn(len(rfftSizes))]
	x := g.Series(1 + g.Intn(n))
	p := fft.NewRFFT(n)
	spec := make([]complex128, p.SpectrumLen())
	work := make([]complex128, p.WorkLen())
	p.Forward(x, spec, work)
	ref := refDFT(x, n)
	for k := range spec {
		if !Close(real(spec[k]), real(ref[k]), DefaultTol) || !Close(imag(spec[k]), imag(ref[k]), DefaultTol) {
			return fmt.Errorf("rfft n=%d inLen=%d bin %d: %v vs direct DFT %v", n, len(x), k, spec[k], ref[k])
		}
	}
	return nil
}

// runRFFTCrossCorrelate checks the NCC arithmetic the batch SBD paths run
// per pair — two Forward transforms and one CrossCorrelate, the circular
// lags unwrapped, which is RFFT.Correlate — on a fresh plan at the batch
// geometry (equal lengths m, padded to NextPow2(2m-1)) against the direct
// O(m²) definition.
func runRFFTCrossCorrelate(g *Gen) error {
	x, y := g.PairAtMost(100)
	got := fft.NewRFFT(fft.NextPow2(2*len(x)-1)).Correlate(x, y)
	return CheckSlice(fmt.Sprintf("RFFT cross-correlation (m=%d)", len(x)), got, refCrossCorrelate(x, y), DefaultTol)
}

func runSBDVariant(g *Gen, name string, f func(x, y []float64) (float64, []float64)) error {
	x, y := g.PairAtMost(100)
	got, aligned := f(x, y)
	want := refSBD(x, y)
	if err := CheckScalar(fmt.Sprintf("%s(len %d)", name, len(x)), got, want, DefaultTol); err != nil {
		return err
	}
	if got < -DefaultTol || got > 2+DefaultTol {
		return fmt.Errorf("%s(len %d) = %v outside [0, 2]", name, len(x), got)
	}
	if len(aligned) != len(y) {
		return fmt.Errorf("%s aligned length %d, want %d", name, len(aligned), len(y))
	}
	// Self-distance is zero up to rounding (non-degenerate inputs only; the
	// all-zero series maps to distance 1 by convention).
	if ts.Norm(x) > 0 {
		self, _ := f(x, x)
		if err := CheckScalar(fmt.Sprintf("%s(x, x)", name), self, 0, DefaultTol); err != nil {
			return err
		}
	}
	return nil
}

func runSBDBatch(g *Gen) error {
	m := g.LenAtMost(100)
	data := g.Matrix(4+g.Intn(5), m)
	b := dist.NewSBDBatch(data)
	q := g.Series(m)
	query := b.Query(q)
	scratch := b.Scratch()
	for i := range data {
		wantDist, _ := dist.SBD(q, data[i])
		gotDist, gotShift := query.Distance(i)
		if err := CheckScalar(fmt.Sprintf("batch dist[%d]", i), gotDist, wantDist, DefaultTol); err != nil {
			return err
		}
		// The batch path runs the real-input transform while the per-pair
		// reference runs the complex one, so on a tied correlation plateau
		// (constant×spike inputs) their argmax can legitimately differ by
		// rounding. The contract is therefore ε-equivalent maximization:
		// the batch shift must itself attain the reference optimum, checked
		// by recomputing its correlation value from the definition.
		if gotShift <= -m || gotShift >= m {
			return fmt.Errorf("batch shift[%d] = %d outside (-%d, %d)", i, gotShift, m, m)
		}
		if den := ts.Norm(q) * ts.Norm(data[i]); den > 0 {
			v := ts.Dot(q, ts.Shift(data[i], gotShift))
			if err := CheckScalar(fmt.Sprintf("batch shift[%d] optimality", i), 1-v/den, wantDist, DefaultTol); err != nil {
				return err
			}
		}
		// The caller-provided-scratch path must agree with the internal one.
		sDist, sShift := query.DistanceScratch(i, scratch)
		if err := CheckScalar(fmt.Sprintf("scratch dist[%d]", i), sDist, gotDist, 0); err != nil {
			return err
		}
		if err := CheckInt(fmt.Sprintf("scratch shift[%d]", i), sShift, gotShift); err != nil {
			return err
		}
	}
	return nil
}

// runSBDBatchPairwiseNN checks the cached-spectra batch endpoints against
// their per-pair references: PairwiseInto against an SBDDist matrix
// (within tolerance), bit-identical across worker counts, and SBDNearest
// against a serial NNIndex scan (indices equal whenever the per-pair
// winner is ε-separated; on near-ties both candidates must be optimal).
func runSBDBatchPairwiseNN(g *Gen) error {
	m := g.LenAtMost(64)
	data := g.Matrix(4+g.Intn(6), m)
	b := dist.NewSBDBatch(data)
	n := len(data)
	matrix := func(workers int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, n)
		}
		b.PairwiseInto(out, workers)
		return out
	}
	got := matrix(1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i != j {
				want = dist.SBDDist(data[i], data[j])
			}
			if err := CheckScalar(fmt.Sprintf("PairwiseInto[%d][%d]", i, j), got[i][j], want, DefaultTol); err != nil {
				return err
			}
			if !SameBits(got[i][j], got[j][i]) {
				return fmt.Errorf("PairwiseInto asymmetric at (%d,%d): %v vs %v", i, j, got[i][j], got[j][i])
			}
		}
	}
	for _, w := range workerCounts {
		gw := matrix(w)
		for i := range gw {
			if err := CheckSlice(fmt.Sprintf("PairwiseInto row %d (workers=%d)", i, w), gw[i], got[i], 0); err != nil {
				return err
			}
		}
	}
	queries := g.Matrix(3+g.Intn(4), m)
	nearest := dist.SBDNearest(data, queries, 1)
	for qi, q := range queries {
		wantIdx, wantDist := dist.NNIndex(dist.SBDMeasure{}, q, data)
		gotIdx := nearest[qi]
		if gotIdx < 0 || gotIdx >= n {
			return fmt.Errorf("SBDNearest[%d] = %d out of range", qi, gotIdx)
		}
		if gotIdx != wantIdx {
			// Allowed only when the two candidates tie within tolerance.
			gotDist := dist.SBDDist(q, data[gotIdx])
			if err := CheckScalar(fmt.Sprintf("SBDNearest[%d] tie (%d vs %d)", qi, gotIdx, wantIdx), gotDist, wantDist, DefaultTol); err != nil {
				return err
			}
		}
	}
	for _, w := range workerCounts {
		nw := dist.SBDNearest(data, queries, w)
		for qi := range nw {
			if err := CheckInt(fmt.Sprintf("SBDNearest[%d] (workers=%d)", qi, w), nw[qi], nearest[qi]); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSBDNearestPruned checks SBDQuery.Nearest, which skips series by their
// spectral lower bound, against the unpruned ascending scan over
// DistanceScratch with a strict comparison: same index (ties to the
// smaller one, -1 when every distance is NaN) and same distance bits, both
// directly and through SBDNearest at every worker count.
func runSBDNearestPruned(g *Gen) error {
	refs, queries := g.NearestCase()
	b := dist.NewSBDBatch(refs)
	sc := b.Scratch()
	want := make([]int, len(queries))
	for qi, q := range queries {
		query := b.Query(q)
		wantIdx, wantDist := -1, math.Inf(1)
		for i := 0; i < b.Len(); i++ {
			if d, _ := query.DistanceScratch(i, sc); d < wantDist {
				wantIdx, wantDist = i, d
			}
		}
		gotIdx, gotDist := query.Nearest()
		if err := CheckInt(fmt.Sprintf("Nearest[%d] (m=%d)", qi, len(q)), gotIdx, wantIdx); err != nil {
			return err
		}
		if !SameBits(gotDist, wantDist) {
			return fmt.Errorf("Nearest[%d] (m=%d) distance %v, unpruned scan %v", qi, len(q), gotDist, wantDist)
		}
		want[qi] = wantIdx
	}
	for _, w := range append([]int{1}, workerCounts...) {
		got := dist.SBDNearest(refs, queries, w)
		for qi := range got {
			if err := CheckInt(fmt.Sprintf("SBDNearest[%d] (workers=%d)", qi, w), got[qi], want[qi]); err != nil {
				return err
			}
		}
	}
	return nil
}

func runDTWFullMatrix(g *Gen) error {
	// Unequal lengths exercise band clamping and the disconnected-band +Inf.
	x := g.Series(g.LenAtMost(48))
	y := g.Series(g.LenAtMost(48))
	maxLen := len(x)
	if len(y) > maxLen {
		maxLen = len(y)
	}
	for _, w := range []int{-1, 0, 1, maxLen / 4, maxLen, g.Window(maxLen)} {
		got := dist.CDTW(x, y, w)
		want := refDTW(x, y, w)
		if err := CheckScalar(fmt.Sprintf("CDTW(len %d, %d, w=%d)", len(x), len(y), w), got, want, DefaultTol); err != nil {
			return err
		}
	}
	return nil
}

func runWarpingPath(g *Gen) error {
	x, y := g.PairAtMost(48)
	w := g.Window(len(x))
	path, d := dist.WarpingPath(x, y, w)
	want := dist.CDTW(x, y, w)
	if err := CheckScalar(fmt.Sprintf("WarpingPath distance (len %d, w=%d)", len(x), w), d, want, DefaultTol); err != nil {
		return err
	}
	if math.IsInf(d, 1) {
		if path != nil {
			return fmt.Errorf("disconnected band returned a path of length %d", len(path))
		}
		return nil
	}
	if len(path) == 0 {
		return fmt.Errorf("finite distance %v with empty path", d)
	}
	if path[0] != [2]int{0, 0} || path[len(path)-1] != [2]int{len(x) - 1, len(y) - 1} {
		return fmt.Errorf("path endpoints %v .. %v, want (0,0) .. (%d,%d)",
			path[0], path[len(path)-1], len(x)-1, len(y)-1)
	}
	band := w
	if band < 0 {
		band = len(x)
		if len(y) > band {
			band = len(y)
		}
	}
	cost := 0.0
	for s, p := range path {
		i, j := p[0], p[1]
		if i < 0 || i >= len(x) || j < 0 || j >= len(y) {
			return fmt.Errorf("path step %d out of range: (%d,%d)", s, i, j)
		}
		if di := (i + 1) - (j + 1); di > band || -di > band {
			return fmt.Errorf("path step %d = (%d,%d) outside band w=%d", s, i, j, w)
		}
		if s > 0 {
			pi, pj := path[s-1][0], path[s-1][1]
			if i-pi < 0 || i-pi > 1 || j-pj < 0 || j-pj > 1 || (i == pi && j == pj) {
				return fmt.Errorf("path step %d: invalid move (%d,%d) -> (%d,%d)", s, pi, pj, i, j)
			}
		}
		dd := x[i] - y[j]
		cost += dd * dd
	}
	return CheckScalar("path cost", math.Sqrt(cost), d, DefaultTol)
}

func runBoundChain(g *Gen) error {
	x, y := g.PairAtMost(64)
	m := len(x)
	w := g.Window(m)
	if w < 0 {
		w = m
	}
	upper, lower := dist.Envelope(y, w)
	for i := range y {
		if lower[i] > y[i] || y[i] > upper[i] {
			return fmt.Errorf("envelope[%d] = [%v, %v] does not bracket y=%v (w=%d)", i, lower[i], upper[i], y[i], w)
		}
	}
	lb := dist.LBKeogh(x, upper, lower)
	cdtw := dist.CDTW(x, y, w)
	slack := DefaultTol * (1 + lb + cdtw)
	if lb > cdtw+slack {
		return fmt.Errorf("LB_Keogh %v > cDTW(w=%d) %v (m=%d)", lb, w, cdtw, m)
	}
	full := dist.DTW(x, y)
	if full > cdtw+DefaultTol*(1+full+cdtw) {
		return fmt.Errorf("DTW %v > cDTW(w=%d) %v (m=%d)", full, w, cdtw, m)
	}
	ed := dist.ED(x, y)
	if cdtw > ed+DefaultTol*(1+cdtw+ed) {
		return fmt.Errorf("cDTW(w=%d) %v > ED %v (m=%d)", w, cdtw, ed, m)
	}
	// The diagonal band degenerates to the Euclidean alignment exactly.
	return CheckScalar(fmt.Sprintf("cDTW(w=0) vs ED (m=%d)", m), dist.CDTW(x, y, 0), ed, DefaultTol)
}

// randomOrthonormal builds m orthonormal vectors of dimension m via modified
// Gram-Schmidt over gaussian draws, retrying the (measure-zero) degenerate
// draws.
func randomOrthonormal(g *Gen, m int) [][]float64 {
	vecs := make([][]float64, 0, m)
	for len(vecs) < m {
		v := make([]float64, m)
		for t := range v {
			v[t] = g.NormFloat64()
		}
		for _, u := range vecs {
			proj := 0.0
			for t := range v {
				proj += v[t] * u[t]
			}
			for t := range v {
				v[t] -= proj * u[t]
			}
		}
		nrm := 0.0
		for _, t := range v {
			nrm += t * t
		}
		nrm = math.Sqrt(nrm)
		if nrm < 1e-8 {
			continue
		}
		for t := range v {
			v[t] /= nrm
		}
		vecs = append(vecs, v)
	}
	return vecs
}

func absCos(a, b []float64) float64 {
	num, na, nb := 0.0, 0.0, 0.0
	for i := range a {
		num += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	den := math.Sqrt(na * nb)
	if den <= 0 {
		return 0
	}
	return math.Abs(num) / den
}

func runEigen(g *Gen) error {
	m := 4 + g.Intn(9)
	basis := randomOrthonormal(g, m)
	// Geometric spectrum with ratio up to 0.9. Gram stops on the relative
	// residual ‖Sv − λv‖ ≤ 1e-12·λ, which bounds the angle to the true
	// eigenvector by about 1e-12/(1 − ratio), so the residual, the value
	// and the vector all meet 1e-9 even at a narrow gap.
	lambda1 := math.Exp(g.NormFloat64())
	ratio := 0.2 + 0.7*g.Float64()
	// S = AᵀA for a factor A of n rows, narrower or wider than m, so Gram
	// iterates on either side: row j is √(λₖ/cₖ)·basisₖ for k = j mod m,
	// where cₖ counts the rows that share basisₖ. The spectrum is then
	// λ₁, λ₁·ratio, … over the first min(n, m) basis vectors and 0 beyond.
	n := 1 + g.Intn(m-1)
	if g.Intn(2) == 0 {
		n = m + g.Intn(2*m)
	}
	want := make([]float64, m)
	lam := lambda1
	for k := range min(n, m) {
		want[k] = lam
		lam *= ratio
	}
	s := linalg.NewSym(m)
	var gram linalg.Gram
	gram.Reset(n, m)
	for j := range n {
		k := j % m
		copies := (n - k + m - 1) / m // rows j < n with j mod m = k
		row := gram.Row(j)
		for i, v := range basis[k] {
			row[i] = math.Sqrt(want[k]/float64(copies)) * v
		}
		s.GramAddOuter(row)
	}
	name := fmt.Sprintf("Gram.Dominant (n=%d, m=%d, ratio=%.3f)", n, m, ratio)
	gotVal, vec, converged := gram.Dominant()
	if !converged {
		return fmt.Errorf("%s stopped at its step cap", name)
	}
	if err := CheckScalar(name+" value", gotVal, lambda1, DefaultTol); err != nil {
		return err
	}
	if c := absCos(vec, basis[0]); 1-c > DefaultTol {
		return fmt.Errorf("%s vector misaligned with constructed basis: 1-|cos| = %v", name, 1-c)
	}
	sv := make([]float64, m)
	s.MulVec(sv, vec)
	res := 0.0
	for i, x := range sv {
		d := x - gotVal*vec[i]
		res += d * d
	}
	if math.Sqrt(res) > DefaultTol*gotVal {
		return fmt.Errorf("%s residual ‖Sv − λv‖ = %v > %v·λ", name, math.Sqrt(res), DefaultTol)
	}
	vals, vecs := linalg.EigenDecompose(s)
	qlVal, qlVec := vals[m-1], vecs[m-1]
	if err := CheckScalar("EigenDecompose top value", qlVal, lambda1, DefaultTol); err != nil {
		return err
	}
	if c := absCos(qlVec, vec); 1-c > DefaultTol {
		return fmt.Errorf("power vs QL eigenvectors misaligned: 1-|cos| = %v", 1-c)
	}
	// The full spectrum must reproduce the constructed eigenvalues
	// (EigenDecompose returns ascending order).
	for k, w := range want {
		if err := CheckScalar(fmt.Sprintf("EigenDecompose value %d", k), vals[m-1-k], w, DefaultTol); err != nil {
			return err
		}
	}
	return nil
}

// refShapeExtraction rebuilds Algorithm 2's steps 2-4 the way the paper
// states them — the dense Gram S = X′ᵀX′ of the z-normalized members,
// centered as Qᵀ·S·Q, then the full Householder+QL decomposition in place
// of power iteration — with the same sign-fix convention, decided by the
// summed squared distances themselves.
func refShapeExtraction(aligned [][]float64) []float64 {
	m := len(aligned[0])
	s := linalg.NewSym(m)
	for _, a := range aligned {
		s.GramAddOuter(ts.ZNormalize(a))
	}
	centerProject(s)
	_, vecs := linalg.EigenDecompose(s)
	cen := ts.ZNormalize(vecs[m-1])
	neg := make([]float64, m)
	for i, v := range cen {
		neg[i] = -v
	}
	if refSumSqED(aligned, neg) < refSumSqED(aligned, cen) {
		return neg
	}
	return cen
}

// centerProject replaces s with Qᵀ·s·Q where Q = I − (1/n)·11ᵀ is the
// centering projector of Equation 15. Because Q is symmetric and
// idempotent this amounts to removing row means and then column means.
func centerProject(s *linalg.Sym) {
	n := s.N
	rowMean := make([]float64, n)
	for i := range rowMean {
		rowMean[i] = ts.Mean(s.Row(i))
	}
	grand := ts.Mean(rowMean)
	colMean := make([]float64, n)
	for j := range colMean {
		acc := 0.0
		for i := 0; i < n; i++ {
			acc += s.At(i, j)
		}
		colMean[j] = acc / float64(n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.Data[i*n+j] += grand - rowMean[i] - colMean[j]
		}
	}
}

func refSumSqED(cluster [][]float64, c []float64) float64 {
	total := 0.0
	for _, x := range cluster {
		total += dist.SquaredED(ts.ZNormalize(x), c)
	}
	return total
}

func runShapeExtraction(g *Gen) error {
	// Draw the cluster narrower than m, so Gram iterates on K = AAᵀ, or at
	// least as wide as m, so it iterates on M = AᵀA; or draw phase-shifted
	// copies of one sine on either side, whose two leading eigenvalues are
	// close.
	m := 8 + g.Intn(57)
	var cluster [][]float64
	switch g.Intn(3) {
	case 0:
		cluster = g.Cluster(1+g.Intn(m-1), m)
	case 1:
		cluster = g.Cluster(m+g.Intn(17), m)
	default:
		cluster = shiftedSines(g, 8+g.Intn(m+1), m)
	}
	got := avg.ShapeExtractionAligned(cluster)
	want := refShapeExtraction(cluster)
	return CheckSlice(fmt.Sprintf("ShapeExtraction (n=%d, m=%d)", len(cluster), m), got, want, DefaultTol)
}

// shiftedSines returns n noisy copies of one sine whose phases spread
// evenly over ±δ. The members span mostly a sine and a cosine, with
// weights about the means of cos² and sin² over the phases, so the two
// leading eigenvalues of M approach each other as δ grows towards π/2.
// Near δ = 1.4, λ₂/λ₁ passes 0.97 and the power iteration's step cap ends
// it before its residual rule does, so shape extraction takes the exact
// solve instead.
func shiftedSines(g *Gen, n, m int) [][]float64 {
	f := 1 + 3*g.Float64()
	delta := 0.6 + 0.8*g.Float64()
	out := make([][]float64, n)
	for t := range out {
		phase := delta * (2*float64(t)/float64(n-1) - 1)
		x := make([]float64, m)
		for i := range x {
			x[i] = math.Sin(2*math.Pi*f*float64(i)/float64(m)+phase) + 0.05*g.NormFloat64()
		}
		out[t] = x
	}
	return out
}

// shiftedClasses returns 2-4 classes of noisy, randomly shifted copies of
// one base shape each, plus a few degenerate rows (zeros, constants,
// spikes): the out-of-phase geometry k-Shape targets, with the corners
// SBD special-cases mixed in.
func shiftedClasses(g *Gen) [][]float64 {
	m := 8 + g.Intn(57)
	var data [][]float64
	for c := 2 + g.Intn(3); c > 0; c-- {
		for _, x := range g.Cluster(4+g.Intn(9), m) {
			data = append(data, ts.Shift(x, g.Intn(m/4+1)-m/8))
		}
	}
	for d := 1 + g.Intn(3); d > 0; d-- {
		data = append(data, g.Series(m))
	}
	return data
}

// zeroSource is a rand.Source that always draws 0, so rand.Intn(k) is 0
// and a run seeded with it starts with every series in cluster 0.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

func runKShapeVsLloyd(g *Gen) error {
	data := shiftedClasses(g)
	k := 3 + g.Intn(2)
	cases := []struct {
		name string
		cfg  func() core.Config
	}{
		// Every series starts in cluster 0, so the first assignment
		// leaves clusters empty and reseedEmptyClusters must move series.
		{"reseeds", func() core.Config {
			return core.Config{K: k, MaxIterations: 6, Rand: rand.New(zeroSource{})}
		}},
		{"to-convergence", func() core.Config {
			return core.Config{K: k, Rand: rand.New(rand.NewSource(g.Seed))}
		}},
	}
	for _, tc := range cases {
		var wantTraj []obs.IterationStats
		ref := tc.cfg()
		ref.OnIteration = func(s obs.IterationStats) { wantTraj = append(wantTraj, s) }
		want, err := core.Lloyd(data, ref, dist.SBDDist, avg.ShapeExtraction)
		if err != nil {
			return fmt.Errorf("%s: Lloyd: %v", tc.name, err)
		}
		reseeds := 0
		for _, s := range wantTraj {
			reseeds += s.Reseeds
		}
		if tc.name == "reseeds" && reseeds == 0 {
			return fmt.Errorf("%s (n=%d, k=%d): the reference run never reseeded", tc.name, len(data), k)
		}
		for _, w := range []int{1, 2, 8} {
			for _, observed := range []bool{false, true} {
				var gotTraj []obs.IterationStats
				cfg := tc.cfg()
				cfg.Workers = w
				if observed {
					cfg.OnIteration = func(s obs.IterationStats) { gotTraj = append(gotTraj, s) }
				}
				got, err := core.KShapeRun(data, cfg)
				if err != nil {
					return fmt.Errorf("%s: KShapeRun: %v", tc.name, err)
				}
				name := fmt.Sprintf("%s (n=%d, m=%d, k=%d, workers=%d, observed=%v)", tc.name, len(data), len(data[0]), k, w, observed)
				if err := sameResult(name, got, want); err != nil {
					return err
				}
				if observed {
					if err := sameTrajectory(name, gotTraj, wantTraj); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// sameTrajectory reports the first difference between two OnIteration
// trajectories: every field but the phase wall times, floats bit for bit.
func sameTrajectory(name string, got, want []obs.IterationStats) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d iterations observed, want %d", name, len(got), len(want))
	}
	for i, w := range want {
		g, it := got[i], fmt.Sprintf("%s iteration %d", name, i+1)
		if g.Iteration != w.Iteration || g.LabelChurn != w.LabelChurn || g.Reseeds != w.Reseeds || !slices.Equal(g.ClusterSizes, w.ClusterSizes) {
			return fmt.Errorf("%s: iteration/churn/reseeds/sizes = %d/%d/%d/%v, want %d/%d/%d/%v", it,
				g.Iteration, g.LabelChurn, g.Reseeds, g.ClusterSizes, w.Iteration, w.LabelChurn, w.Reseeds, w.ClusterSizes)
		}
		if err := CheckSlice(it+" inertia/delta/silhouette", []float64{g.Inertia, g.InertiaDelta, g.SilhouetteSample},
			[]float64{w.Inertia, w.InertiaDelta, w.SilhouetteSample}, 0); err != nil {
			return err
		}
		if err := CheckSlice(it+" centroid drift", g.CentroidDrift, w.CentroidDrift, 0); err != nil {
			return err
		}
	}
	return nil
}

// sameResult reports the first difference between two clusterings: the
// iteration count, convergence, labels, or any bit of the inertia or the
// centroids.
func sameResult(name string, got, want *core.Result) error {
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		return fmt.Errorf("%s: iterations/converged = %d/%v, want %d/%v", name, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	for i := range want.Labels {
		if err := CheckInt(fmt.Sprintf("%s label[%d]", name, i), got.Labels[i], want.Labels[i]); err != nil {
			return err
		}
	}
	if err := CheckScalar(name+" inertia", got.Inertia, want.Inertia, 0); err != nil {
		return err
	}
	for j := range want.Centroids {
		if err := CheckSlice(fmt.Sprintf("%s centroid %d", name, j), got.Centroids[j], want.Centroids[j], 0); err != nil {
			return err
		}
	}
	return nil
}

// workerCounts are the parallelism degrees every exact pair is checked at,
// against the serial (workers=1) reference.
var workerCounts = []int{2, 3, 7, 16}

func runPairwise(g *Gen) error {
	data := g.Matrix(6+g.Intn(8), g.LenAtMost(64))
	measures := []dist.Measure{dist.SBDMeasure{}, dist.EDMeasure{}, dist.CDTWMeasure{Window: 3}}
	d := measures[g.Intn(len(measures))]
	want := dist.PairwiseMatrixWorkers(d, data, 1)
	for _, w := range workerCounts {
		got := dist.PairwiseMatrixWorkers(d, data, w)
		for i := range got {
			if err := CheckSlice(fmt.Sprintf("%s pairwise row %d (workers=%d)", d.Name(), i, w), got[i], want[i], 0); err != nil {
				return err
			}
		}
	}
	for i := range want {
		for j := range want[i] {
			if !SameBits(want[i][j], want[j][i]) {
				return fmt.Errorf("%s pairwise asymmetric at (%d,%d): %v vs %v", d.Name(), i, j, want[i][j], want[j][i])
			}
		}
	}
	return nil
}

func runZNorm(g *Gen) error {
	x := g.Series(g.Len())
	fromCopy := ts.ZNormalize(x)
	inPlace := ts.ZNormalizeInPlace(append([]float64(nil), x...))
	if err := CheckSlice(fmt.Sprintf("ZNormalize (m=%d)", len(x)), inPlace, fromCopy, 0); err != nil {
		return err
	}
	if !ts.IsZNormalized(fromCopy, 1e-6) {
		return fmt.Errorf("ZNormalize output fails IsZNormalized: mean=%v std=%v", ts.Mean(fromCopy), ts.Std(fromCopy))
	}
	// Idempotence: normalizing twice is a no-op up to rounding.
	twice := ts.ZNormalize(fromCopy)
	return CheckSlice("ZNormalize idempotence", twice, fromCopy, DefaultTol)
}
