package dist

import "math"

// Hooks for the external dist_test package, which can use testkit's
// generators (testkit imports dist, so internal tests cannot).

// NearestBlock is the number of queries SBDNearest bounds in one pass.
const NearestBlock = nearestBlock

// MinBoundNorm and MaxBoundNorm are the norm range inside which the
// spectral lower bound is computed.
const (
	MinBoundNorm = minBoundNorm
	MaxBoundNorm = maxBoundNorm
)

// LowerBounds returns the spectral lower bound of SBD(q, x_i) for every
// batch series, as Nearest computes it: the bound pass over a block of
// one.
func (s *SBDQuery) LowerBounds() []float64 {
	s.ensureBounds()
	s.batch.lowerBounds([]*SBDQuery{s}, s.own)
	return append([]float64(nil), s.lb...)
}

// PhaseBounds returns the phase bound of SBD(q, x_i) for every batch
// series, as Nearest computes it before an exact SBD, and NaN for the
// pairs Nearest does not bound by phase.
func (s *SBDQuery) PhaseBounds() []float64 {
	s.ensureBounds()
	s.batch.lowerBounds([]*SBDQuery{s}, s.own)
	out := make([]float64, s.batch.Len())
	phase := s.loadHead(s.own)
	for i := range out {
		out[i] = math.NaN()
		if phase && boundable(s.batch.norm[i]) {
			out[i] = s.phaseBound(i, s.own)
		}
	}
	return out
}

// BlockLowerBounds runs SBDNearest's bound pass over one block of queries
// (at most NearestBlock) and returns each query's bound row.
func (b *SBDBatch) BlockLowerBounds(queries [][]float64) [][]float64 {
	block, sc := b.newBlock(len(queries)), b.Scratch()
	for j, q := range block {
		b.checkQuery(queries[j])
		q.prepare(queries[j], sc)
	}
	b.lowerBounds(block, sc)
	rows := make([][]float64, len(block))
	for j, q := range block {
		rows[j] = append([]float64(nil), q.lb...)
	}
	return rows
}

// OneQueryLowerBounds returns the spectral lower bound of SBD(q, x_i) for
// every batch series from the one-query, one-accumulator loop the block
// pass replaced, kept verbatim as the reference the block pass must
// reproduce bit for bit.
func (s *SBDQuery) OneQueryLowerBounds() []float64 {
	b := s.batch
	qBound := boundable(s.norm)
	mag := make([]float64, len(s.spec))
	if qBound {
		scale := 1 / float64(b.l)
		for k, c := range s.spec {
			w := 2 * scale
			if k == 0 || k == b.l/2 {
				w = scale
			}
			mag[k] = w * math.Sqrt(real(c)*real(c)+imag(c)*imag(c))
		}
	}
	out := make([]float64, len(b.spec))
	for i, xs := range b.spec {
		den := s.norm * b.norm[i]
		lb := math.Inf(-1)
		switch {
		case degenerate(den):
			lb = 1
		case qBound && boundable(b.norm[i]):
			mag := mag[:len(xs)]
			sum := 0.0
			for k, c := range xs {
				sum += mag[k] * math.Sqrt(real(c)*real(c)+imag(c)*imag(c))
			}
			lb = 1 - sum/den
		}
		out[i] = lb
	}
	return out
}
