package dataset

import (
	"fmt"
	"math/rand"

	"kshape/internal/ts"
)

// Dataset is a labeled, train/test-split collection of equal-length series,
// mirroring the layout of the UCR archive the paper evaluates on.
type Dataset struct {
	Name  string
	K     int // number of classes
	M     int // series length
	Train []ts.Series
	Test  []ts.Series
}

// All returns the fused training and test sets, which the paper's
// clustering experiments operate on.
func (d Dataset) All() []ts.Series {
	out := make([]ts.Series, 0, len(d.Train)+len(d.Test))
	out = append(out, d.Train...)
	out = append(out, d.Test...)
	return out
}

// Spec describes a synthetic dataset: its shape classes and the distortion
// regime applied to every instance (Section 2.2's invariance families).
type Spec struct {
	Name          string
	M             int     // series length
	TrainPerClass int     // training instances per class
	TestPerClass  int     // test instances per class
	Noise         float64 // additive Gaussian noise std (relative to unit-amplitude prototypes)
	MaxShift      int     // uniform random shift in [-MaxShift, MaxShift] (global alignment)
	WarpFrac      float64 // smooth monotone warping strength (local alignment)
	Classes       []ClassProto
	Seed          int64
}

// Generate materializes the dataset: every instance is a prototype draw,
// warped, shifted, noised, amplitude-scaled, and finally z-normalized
// (the archive convention the paper relies on).
func Generate(spec Spec) Dataset {
	if len(spec.Classes) < 2 {
		panic(fmt.Sprintf("dataset: spec %q needs at least 2 classes", spec.Name))
	}
	if spec.M < 4 {
		panic(fmt.Sprintf("dataset: spec %q has degenerate length %d", spec.Name, spec.M))
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	gen := func(perClass int) []ts.Series {
		var out []ts.Series
		for label, proto := range spec.Classes {
			for i := 0; i < perClass; i++ {
				x := proto(spec.M, rng)
				if spec.WarpFrac > 0 {
					x = warp(x, spec.WarpFrac, rng)
				}
				if spec.MaxShift > 0 {
					x = ts.Shift(x, rng.Intn(2*spec.MaxShift+1)-spec.MaxShift)
				}
				// Random amplitude scale and offset (removed by the final
				// z-normalization, but present in the raw signal as in real
				// recordings).
				scale := 0.5 + rng.Float64()*2
				offset := rng.NormFloat64() * 2
				y := make([]float64, spec.M)
				for j, v := range x {
					y[j] = scale*v + offset + spec.Noise*scale*rng.NormFloat64()
				}
				out = append(out, ts.NewLabeled(ts.ZNormalize(y), label))
			}
		}
		return out
	}
	return Dataset{
		Name:  spec.Name,
		K:     len(spec.Classes),
		M:     spec.M,
		Train: gen(spec.TrainPerClass),
		Test:  gen(spec.TestPerClass),
	}
}

// CBF generates n instances (labels uniform over the three CBF classes) of
// length m — the workload of the paper's Appendix B scalability study.
func CBF(n, m int, seed int64) []ts.Series {
	rng := rand.New(rand.NewSource(seed))
	protos := []ClassProto{CBFCylinderProto(), CBFBellProto(), CBFFunnelProto()}
	out := make([]ts.Series, n)
	for i := range out {
		label := i % 3
		out[i] = ts.NewLabeled(ts.ZNormalize(protos[label](m, rng)), label)
	}
	return out
}
