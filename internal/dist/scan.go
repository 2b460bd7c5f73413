package dist

import "math"

// ScanMargin is Scan's rounding margin, far above a bound's or SBD's error.
const ScanMargin = 1e-9

// Scan is the one exact pruned nearest search: k-Shape's assignment
// (drift bounds, seeded with the series' label, then head-tail spectral
// bounds through Skip), SBD 1-NN (spectral bounds, seeded with the
// smallest, then phase bounds through Skip) and cDTW 1-NN (LB_Keogh,
// seed 0) run it over a row of lower bounds, one per candidate:
//
//	s.Reset(row, seed, top2)
//	for j, ok := s.Next(); ok; j, ok = s.Next() {
//		s.Offer(distance(j)) // (distance, shift)
//	}
//
// Next yields the seed, then the other candidates in ascending order,
// skipping (and counting in Pruned) each whose bound exceeds the limit by
// more than ScanMargin. The limit is the smallest distance offered so
// far, or with top2 the second smallest, so a skipped candidate is
// strictly farther than the nearest (with top2, than the runner-up too)
// and the result is the unpruned ascending scan's: ties go to the smaller
// index and NaN never wins. Offer writes each exact distance into the
// row; a candidate skipped by Next keeps its bound, and one skipped by
// Skip gets Skip's bound. Pruned totals the skips of every scan since the
// zero value, so one Scan can count a whole loop.
type Scan struct {
	row             []float64
	seed, next, cur int // next < 0: the seed is due
	top2            bool
	idx, shift      int
	dist, lo1, lo2  float64 // lo1 ≤ lo2: the two smallest offered, NaN ignored
	Pruned          int
}

// Reset starts a scan over row seeded with candidate seed (any if empty).
//
//kshape:hotpath
func (s *Scan) Reset(row []float64, seed int, top2 bool) {
	inf := math.Inf(1)
	*s = Scan{row: row, seed: seed, next: -min(len(row), 1), top2: top2, idx: -1, dist: inf, lo1: inf, lo2: inf, Pruned: s.Pruned}
}

// Next returns the next candidate to evaluate, or false when none is left.
//
//kshape:hotpath
func (s *Scan) Next() (int, bool) {
	limit := s.limit()
	for ; s.next < len(s.row); s.next++ {
		j := s.next
		switch {
		case j < 0:
			j = s.seed
		case j == s.seed:
			continue
		case s.row[j] > limit+ScanMargin:
			s.Pruned++
			continue
		}
		s.next, s.cur = s.next+1, j
		return j, true
	}
	return -1, false
}

// Skip is an optional second filter between Next and Offer, for a bound
// too costly to store in the row and so computed only for a candidate
// Next did not skip (k-Shape's head-tail bound, 1-NN's phase bound): it
// reports whether bound, a lower bound on the candidate Next returned
// last, exceeds the limit by more than ScanMargin. If so, the candidate
// is skipped as Next would have skipped it (counted in Pruned, with bound
// written into the row), and the caller must not Offer it. The seed is
// never skipped.
//
//kshape:hotpath
func (s *Scan) Skip(bound float64) bool {
	if !(bound > s.limit()+ScanMargin) {
		return false
	}
	s.row[s.cur] = bound
	s.Pruned++
	return true
}

// limit is the distance a bound must exceed by ScanMargin to skip a
// candidate: the smallest distance offered, or with top2 the second
// smallest.
func (s *Scan) limit() float64 {
	if s.top2 {
		return s.lo2
	}
	return s.lo1
}

// Offer records the exact distance of the candidate Next returned last,
// and the shift that aligns it.
//
//kshape:hotpath
func (s *Scan) Offer(d float64, shift int) {
	j := s.cur
	s.row[j] = d
	//lint:ignore floatcmp an exact tie goes to the smaller index, as in the unpruned scan
	if d < s.dist || (d == s.dist && j < s.idx) {
		s.idx, s.dist, s.shift = j, d, shift
	}
	if d < s.lo1 {
		s.lo1, s.lo2 = d, s.lo1
	} else if d < s.lo2 {
		s.lo2 = d
	}
}

// Result returns the nearest candidate (-1 if none is below +Inf), its distance
// and shift, and the second-smallest distance offered (with top2, the runner-up's).
func (s *Scan) Result() (idx int, dist, second float64, shift int) {
	return s.idx, s.dist, s.lo2, s.shift
}
