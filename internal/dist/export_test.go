package dist

// Hooks for the external dist_test package, which can use testkit's
// generators (testkit imports dist, so internal tests cannot).

// NearestMargin is Nearest's rounding margin on its bound test.
const NearestMargin = nearestMargin

// LowerBounds returns the spectral lower bound of SBD(q, x_i) for every
// batch series, as Nearest computes it.
func (s *SBDQuery) LowerBounds() []float64 {
	s.lowerBounds()
	return append([]float64(nil), s.lb...)
}
