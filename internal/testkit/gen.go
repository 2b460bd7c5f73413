package testkit

import (
	"math"
	"math/rand"
)

// Gen produces deterministic pseudo-random test cases for the differential
// oracles. A Gen is seeded explicitly (detrand: no ambient randomness) so
// every failure report can name the seed that reproduces it.
//
// The generator deliberately mixes well-behaved inputs (random walks, noisy
// sinusoids) with the degenerate shapes that historically break distance
// kernels: all-zero series, constants (zero variance), single spikes, ramps,
// and lengths of 1, 2, 3, exact powers of two, and awkward odd sizes.
type Gen struct {
	rng *rand.Rand
	// Seed is the value the Gen was constructed with, echoed in failures.
	Seed int64
}

// NewGen returns a generator for the given seed.
func NewGen(seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed)), Seed: seed}
}

// lengths is the pool Len draws from: boundary sizes, a power of two, and
// odd/awkward sizes that exercise FFT padding and band clamping.
var lengths = []int{1, 2, 3, 5, 8, 13, 16, 31, 32, 57, 64, 100, 127}

// Len picks a series length from the boundary-heavy pool.
func (g *Gen) Len() int { return lengths[g.rng.Intn(len(lengths))] }

// LenAtMost is Len restricted to sizes <= limit (for O(m²) oracles).
func (g *Gen) LenAtMost(limit int) int {
	for {
		if m := g.Len(); m <= limit {
			return m
		}
	}
}

// Series returns one length-m series. Roughly a quarter of draws are
// degenerate shapes; the rest are smooth or noisy signals with magnitudes
// up to a few hundred.
func (g *Gen) Series(m int) []float64 {
	x := make([]float64, m)
	switch g.rng.Intn(8) {
	case 0: // all zeros
	case 1: // constant (zero variance, non-zero energy)
		c := g.rng.NormFloat64() * 10
		for i := range x {
			x[i] = c
		}
	case 2: // single spike
		if m > 0 {
			x[g.rng.Intn(m)] = g.rng.NormFloat64() * 100
		}
	case 3: // linear ramp
		slope := g.rng.NormFloat64()
		for i := range x {
			x[i] = slope * float64(i)
		}
	case 4: // random walk
		v := 0.0
		for i := range x {
			v += g.rng.NormFloat64()
			x[i] = v
		}
	case 5: // noisy sinusoid
		freq := 1 + g.rng.Float64()*4
		phase := g.rng.Float64() * 2 * math.Pi
		amp := math.Exp(g.rng.NormFloat64())
		for i := range x {
			x[i] = amp*math.Sin(freq*2*math.Pi*float64(i)/float64(m)+phase) + 0.1*g.rng.NormFloat64()
		}
	default: // iid gaussian at a random scale
		scale := math.Exp(g.rng.NormFloat64() * 2)
		for i := range x {
			x[i] = scale * g.rng.NormFloat64()
		}
	}
	return x
}

// Pair returns two independent series sharing one random length.
func (g *Gen) Pair() (x, y []float64) {
	m := g.Len()
	return g.Series(m), g.Series(m)
}

// PairAtMost is Pair with both lengths bounded by limit.
func (g *Gen) PairAtMost(limit int) (x, y []float64) {
	m := g.LenAtMost(limit)
	return g.Series(m), g.Series(m)
}

// Cluster returns n series of length m built as noisy copies of one
// non-degenerate base shape — the coherent-cluster geometry shape
// extraction sees in practice, which keeps the Gram matrix's dominant
// eigenvalue well separated so the power-iteration and full-decomposition
// paths are comparable to tight tolerance. (Degenerate bases — constants,
// zeros — would z-normalize to pure noise and close that eigen gap, so the
// base here is always a two-tone sinusoid with a drift term.)
func (g *Gen) Cluster(n, m int) [][]float64 {
	base := make([]float64, m)
	f1 := 1 + g.rng.Float64()*3
	f2 := 4 + g.rng.Float64()*4
	phase := g.rng.Float64() * 2 * math.Pi
	drift := g.rng.NormFloat64() * 0.5
	for i := range base {
		u := float64(i) / float64(m)
		base[i] = math.Sin(f1*2*math.Pi*u+phase) + 0.4*math.Cos(f2*2*math.Pi*u) + drift*u
	}
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, m)
		for t := range s {
			s[t] = base[t] + 0.05*g.rng.NormFloat64()
		}
		out[i] = s
	}
	return out
}

// Matrix returns n independent series of length m.
func (g *Gen) Matrix(n, m int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = g.Series(m)
	}
	return out
}

// NearestCase returns a degenerate-heavy 1-NN problem: references and
// queries sharing one length (m ∈ {1, 2, 3} half the time), drawn from
// all-constant rows, exact duplicates of earlier references (ties at
// different indices), shifted copies, rows of huge or tiny magnitude, and
// ordinary Series draws.
func (g *Gen) NearestCase() (refs, queries [][]float64) {
	m := g.Len()
	if g.rng.Intn(2) == 0 {
		m = 1 + g.rng.Intn(3)
	}
	refs = make([][]float64, 3+g.rng.Intn(10))
	for i := range refs {
		refs[i] = g.nearestRow(m, refs[:i])
	}
	queries = make([][]float64, 2+g.rng.Intn(4))
	for i := range queries {
		queries[i] = g.nearestRow(m, refs)
	}
	return refs, queries
}

// nearestScales are the extreme magnitudes NearestCase draws: one whose
// squared spectrum magnitudes underflow, one below the norm range the
// spectral lower bound accepts, one inside it, one whose squared
// magnitudes overflow, and one whose norm overflows.
var nearestScales = []float64{1e-160, 1e-120, 1e80, 1e150, 1e300}

// nearestRow draws one NearestCase row of length m; pool holds the rows
// it may copy.
func (g *Gen) nearestRow(m int, pool [][]float64) []float64 {
	x := make([]float64, m)
	switch g.rng.Intn(6) {
	case 0: // constant, zero included
		c := math.Round(g.rng.NormFloat64() * 2)
		for i := range x {
			x[i] = c
		}
		return x
	case 1: // exact duplicate
		if len(pool) > 0 {
			copy(x, pool[g.rng.Intn(len(pool))])
			return x
		}
	case 2: // shifted copy, zero-padded
		if len(pool) > 0 {
			src, s := pool[g.rng.Intn(len(pool))], g.rng.Intn(m)
			copy(x[s:], src)
			return x
		}
	case 3: // huge or tiny magnitude
		scale := nearestScales[g.rng.Intn(len(nearestScales))]
		for i, v := range g.Series(m) {
			x[i] = scale * v
		}
		return x
	}
	return g.Series(m)
}

// Window picks a Sakoe-Chiba half-width for series of length m, covering
// the unconstrained (-1), diagonal (0), minimal (1), and full (m) bands.
func (g *Gen) Window(m int) int {
	switch g.rng.Intn(5) {
	case 0:
		return -1
	case 1:
		return 0
	case 2:
		return 1
	case 3:
		return m
	default:
		if m <= 1 {
			return 1
		}
		return 1 + g.rng.Intn(m)
	}
}

// Intn exposes the underlying deterministic source for ad-hoc choices.
func (g *Gen) Intn(n int) int { return g.rng.Intn(n) }

// NormFloat64 returns a standard-normal draw from the seeded source.
func (g *Gen) NormFloat64() float64 { return g.rng.NormFloat64() }

// Float64 returns a uniform value in [0, 1).
func (g *Gen) Float64() float64 { return g.rng.Float64() }
