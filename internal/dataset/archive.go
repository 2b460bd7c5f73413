package dataset

import "math/rand"

// upDownProto returns a TwoPatterns-style class: a rectangular pulse of
// direction d1 in the first half and d2 in the second half, with per-
// instance jitter of the pulse positions (Geurts' classic benchmark shape).
func upDownProto(d1, d2 float64) ClassProto {
	return func(m int, rng *rand.Rand) []float64 {
		x := make([]float64, m)
		pulse := func(center int, dir float64) {
			w := m / 10
			if w < 2 {
				w = 2
			}
			for i := center - w/2; i < center+w/2; i++ {
				if i >= 0 && i < m {
					x[i] = dir
				}
			}
		}
		jitter := func(base int) int { return base + rng.Intn(m/8+1) - m/16 }
		pulse(jitter(m/4), d1)
		pulse(jitter(3*m/4), d2)
		return x
	}
}

// ArchiveByName returns the named archive dataset, or false.
func ArchiveByName(name string) (Dataset, bool) {
	for _, s := range ArchiveSpecs() {
		if s.Name == name {
			return Generate(s), true
		}
	}
	return Dataset{}, false
}

// ArchiveSpecs returns the specifications of the 48 synthetic
// class-labeled datasets that stand in for the UCR collection (see
// DESIGN.md §2), without materializing the data. Classes within a dataset
// differ in *shape* — waveform family, frequency, event structure — never
// merely in phase, since the shape-based methods under test are
// shift-invariant by construction. Distortion regimes (noise, shift,
// warping) and sizes vary across datasets to span the archive's structural
// diversity.
//
// Generation is fully deterministic: every dataset has a fixed seed.
func ArchiveSpecs() []Spec {
	cbf := []ClassProto{CBFCylinderProto(), CBFBellProto(), CBFFunnelProto()}
	ecg := []ClassProto{ECGSharpProto(), ECGGradualProto()}
	waves4 := []ClassProto{SineProto(3, 0), SquareProto(3), TriangleProto(3), SawtoothProto(3)}
	twoPat := []ClassProto{
		upDownProto(1, 1), upDownProto(1, -1), upDownProto(-1, 1), upDownProto(-1, -1),
	}

	specs := []Spec{
		// --- CBF family (the Appendix B workload) -------------------------
		{Name: "CBF", M: 128, TrainPerClass: 10, TestPerClass: 30, Noise: 0, MaxShift: 0, Classes: cbf},
		{Name: "CBF-Large", M: 128, TrainPerClass: 25, TestPerClass: 55, Noise: 0, Classes: cbf},
		{Name: "CBF-Long", M: 256, TrainPerClass: 10, TestPerClass: 25, Noise: 0, Classes: cbf},
		{Name: "CBF-Shifted", M: 128, TrainPerClass: 12, TestPerClass: 28, MaxShift: 16, Classes: cbf},

		// --- ECGFiveDays-like family (Figure 1) ---------------------------
		{Name: "ECGLike", M: 136, TrainPerClass: 12, TestPerClass: 30, Noise: 0.10, MaxShift: 8, Classes: ecg},
		{Name: "ECGLike-Noisy", M: 136, TrainPerClass: 12, TestPerClass: 30, Noise: 0.30, MaxShift: 8, Classes: ecg},
		{Name: "ECGLike-Warped", M: 136, TrainPerClass: 12, TestPerClass: 30, Noise: 0.10, MaxShift: 4, WarpFrac: 0.03, Classes: ecg},
		{Name: "ECGLike-Short", M: 64, TrainPerClass: 15, TestPerClass: 35, Noise: 0.15, MaxShift: 5, Classes: ecg},

		// --- frequency discrimination --------------------------------------
		{Name: "Freq2v3", M: 96, TrainPerClass: 15, TestPerClass: 30, Noise: 0.20, MaxShift: 10,
			Classes: []ClassProto{SineProto(2, 0), SineProto(3, 0)}},
		{Name: "Freq1v2v4", M: 128, TrainPerClass: 12, TestPerClass: 24, Noise: 0.20, MaxShift: 8,
			Classes: []ClassProto{SineProto(1, 0), SineProto(2, 0), SineProto(4, 0)}},
		{Name: "FreqFine5v6", M: 192, TrainPerClass: 12, TestPerClass: 24, Noise: 0.15, MaxShift: 8,
			Classes: []ClassProto{SineProto(5, 0), SineProto(6, 0)}},

		// --- waveform families ---------------------------------------------
		{Name: "Waves4", M: 96, TrainPerClass: 10, TestPerClass: 22, Noise: 0.15, MaxShift: 6, Classes: waves4},
		{Name: "Waves4-Noisy", M: 96, TrainPerClass: 10, TestPerClass: 22, Noise: 0.45, MaxShift: 6, Classes: waves4},
		{Name: "SquareVsTriangle", M: 80, TrainPerClass: 16, TestPerClass: 32, Noise: 0.25, MaxShift: 5,
			Classes: []ClassProto{SquareProto(2), TriangleProto(2)}},
		{Name: "SineVsSaw", M: 80, TrainPerClass: 16, TestPerClass: 32, Noise: 0.25, MaxShift: 5,
			Classes: []ClassProto{SineProto(2, 0), SawtoothProto(2)}},
		{Name: "SquareVsSine", M: 72, TrainPerClass: 18, TestPerClass: 30, Noise: 0.35, MaxShift: 4,
			Classes: []ClassProto{SquareProto(3), SineProto(3, 0)}},

		// --- chirps (non-stationary frequency) ----------------------------
		{Name: "ChirpUpDown", M: 128, TrainPerClass: 14, TestPerClass: 28, Noise: 0.15, MaxShift: 6,
			Classes: []ClassProto{ChirpProto(1, 6), ChirpProto(6, 1)}},
		{Name: "ChirpVsSine", M: 128, TrainPerClass: 14, TestPerClass: 28, Noise: 0.20, MaxShift: 6,
			Classes: []ClassProto{ChirpProto(1, 5), SineProto(3, 0)}},
		{Name: "ChirpRates", M: 160, TrainPerClass: 12, TestPerClass: 24, Noise: 0.15, MaxShift: 8,
			Classes: []ClassProto{ChirpProto(1, 3), ChirpProto(1, 5), ChirpProto(1, 8)}},

		// --- event/bump structure -----------------------------------------
		{Name: "Bumps1v2", M: 112, TrainPerClass: 15, TestPerClass: 30, Noise: 0.15, MaxShift: 10,
			Classes: []ClassProto{GaussProto(0.5, 0.06), DoubleGaussProto(0.35, 0.65, 0.06, 1)}},
		{Name: "BumpWidths", M: 112, TrainPerClass: 15, TestPerClass: 30, Noise: 0.15, MaxShift: 8,
			Classes: []ClassProto{GaussProto(0.5, 0.04), GaussProto(0.5, 0.12)}},
		{Name: "BumpAsym", M: 112, TrainPerClass: 12, TestPerClass: 26, Noise: 0.20, MaxShift: 8,
			Classes: []ClassProto{DoubleGaussProto(0.35, 0.65, 0.06, 0.4), DoubleGaussProto(0.35, 0.65, 0.06, 1.6)}},
		{Name: "Bumps3Class", M: 144, TrainPerClass: 12, TestPerClass: 24, Noise: 0.15, MaxShift: 10,
			Classes: []ClassProto{
				GaussProto(0.5, 0.05),
				DoubleGaussProto(0.3, 0.7, 0.05, 1),
				DoubleGaussProto(0.3, 0.7, 0.05, -1),
			}},

		// --- steps, ramps, trends -----------------------------------------
		{Name: "StepVsRamp", M: 96, TrainPerClass: 16, TestPerClass: 32, Noise: 0.20, MaxShift: 6,
			Classes: []ClassProto{StepProto(0.5), TrendProto(1, 0, 0)}},
		{Name: "TrendUpDown", M: 96, TrainPerClass: 16, TestPerClass: 32, Noise: 0.25, MaxShift: 0,
			Classes: []ClassProto{TrendProto(1, 3, 0.3), TrendProto(-1, 3, 0.3)}},
		{Name: "TrendVsSeason", M: 128, TrainPerClass: 14, TestPerClass: 28, Noise: 0.20, MaxShift: 5,
			Classes: []ClassProto{TrendProto(1, 2, 0.2), TrendProto(0, 2, 1.0)}},
		{Name: "SeasonStrength", M: 128, TrainPerClass: 12, TestPerClass: 26, Noise: 0.25, MaxShift: 5,
			Classes: []ClassProto{TrendProto(0.5, 4, 0.2), TrendProto(0.5, 4, 1.2)}},

		// --- TwoPatterns family --------------------------------------------
		{Name: "TwoPatterns", M: 128, TrainPerClass: 12, TestPerClass: 25, Noise: 0.10, Classes: twoPat},
		{Name: "TwoPatterns-Noisy", M: 128, TrainPerClass: 12, TestPerClass: 25, Noise: 0.35, Classes: twoPat},
		{Name: "TwoPatterns-Short", M: 64, TrainPerClass: 14, TestPerClass: 28, Noise: 0.15, Classes: twoPat},

		// --- mixed hard cases ----------------------------------------------
		{Name: "MixedShapes5", M: 128, TrainPerClass: 10, TestPerClass: 20, Noise: 0.20, MaxShift: 8,
			Classes: []ClassProto{
				SineProto(2, 0), SquareProto(2), GaussProto(0.5, 0.08),
				ChirpProto(1, 4), StepProto(0.5),
			}},
		{Name: "MixedShapes6", M: 96, TrainPerClass: 9, TestPerClass: 18, Noise: 0.20, MaxShift: 6,
			Classes: []ClassProto{
				SineProto(2, 0), SineProto(4, 0), SquareProto(2),
				TriangleProto(2), SawtoothProto(2), GaussProto(0.5, 0.1),
			}},
		{Name: "CloseFreqsHard", M: 256, TrainPerClass: 10, TestPerClass: 20, Noise: 0.30, MaxShift: 12,
			Classes: []ClassProto{SineProto(7, 0), SineProto(8, 0)}},
		{Name: "SubtleBumps", M: 96, TrainPerClass: 14, TestPerClass: 28, Noise: 0.40, MaxShift: 8,
			Classes: []ClassProto{GaussProto(0.5, 0.07), DoubleGaussProto(0.42, 0.58, 0.05, 1)}},

		// --- warped variants (local alignment stress) ----------------------
		{Name: "WarpedSines", M: 128, TrainPerClass: 12, TestPerClass: 26, Noise: 0.15, WarpFrac: 0.05,
			Classes: []ClassProto{SineProto(2, 0), SineProto(3, 0)}},
		{Name: "WarpedCBF", M: 128, TrainPerClass: 10, TestPerClass: 24, WarpFrac: 0.04, Classes: cbf},
		{Name: "WarpedWaves", M: 96, TrainPerClass: 10, TestPerClass: 22, Noise: 0.15, WarpFrac: 0.05, Classes: waves4},
		{Name: "WarpedBumps", M: 112, TrainPerClass: 12, TestPerClass: 26, Noise: 0.15, MaxShift: 4, WarpFrac: 0.05,
			Classes: []ClassProto{GaussProto(0.5, 0.05), DoubleGaussProto(0.35, 0.65, 0.05, 1)}},

		// --- small-n regimes (UCR has datasets with as few as 56 series) ---
		{Name: "TinyECG", M: 136, TrainPerClass: 6, TestPerClass: 22, Noise: 0.12, MaxShift: 8, Classes: ecg},
		{Name: "TinyCBF", M: 128, TrainPerClass: 6, TestPerClass: 14, Classes: cbf},
		{Name: "TinyWaves", M: 80, TrainPerClass: 5, TestPerClass: 12, Noise: 0.15, MaxShift: 4, Classes: waves4},

		// --- long-series regimes -------------------------------------------
		{Name: "LongSines", M: 512, TrainPerClass: 8, TestPerClass: 16, Noise: 0.20, MaxShift: 20,
			Classes: []ClassProto{SineProto(4, 0), SineProto(6, 0)}},
		{Name: "LongECG", M: 384, TrainPerClass: 8, TestPerClass: 18, Noise: 0.15, MaxShift: 16, Classes: ecg},
		{Name: "LongChirps", M: 320, TrainPerClass: 8, TestPerClass: 16, Noise: 0.15, MaxShift: 12,
			Classes: []ClassProto{ChirpProto(2, 8), ChirpProto(8, 2)}},

		// --- short-series regimes ------------------------------------------
		{Name: "ShortWaves", M: 32, TrainPerClass: 20, TestPerClass: 40, Noise: 0.20, MaxShift: 3,
			Classes: []ClassProto{SineProto(1, 0), SquareProto(1), TriangleProto(1)}},
		{Name: "ShortBumps", M: 40, TrainPerClass: 20, TestPerClass: 40, Noise: 0.20, MaxShift: 4,
			Classes: []ClassProto{GaussProto(0.5, 0.08), DoubleGaussProto(0.3, 0.7, 0.08, 1)}},
		// --- high-noise stress ---------------------------------------------
		{Name: "NoisyFreqs", M: 128, TrainPerClass: 14, TestPerClass: 28, Noise: 0.60, MaxShift: 8,
			Classes: []ClassProto{SineProto(2, 0), SineProto(4, 0)}},
		{Name: "NoisyCBF", M: 128, TrainPerClass: 12, TestPerClass: 26, Noise: 0.50, Classes: cbf},
	}
	if len(specs) != 48 {
		panic("dataset: archive must contain exactly 48 datasets")
	}
	for i := range specs {
		specs[i].Seed = int64(1000 + 37*i)
	}
	return specs
}
