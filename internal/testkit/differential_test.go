package testkit

import (
	"math"
	"testing"
)

// differentialSeeds is how many independent generator seeds each oracle
// pair is driven with. Every seed draws fresh lengths, shapes, windows, and
// worker counts, so one run covers the degenerate corners (zeros, constants,
// spikes, length 1/2/3, pow2 and odd sizes) many times over.
const differentialSeeds = 25

// TestDifferentialOracles drives every registered fast-kernel/reference
// pair across many seeds. A failure names the pair, the seed, and the first
// disagreement, which reproduces deterministically:
//
//	go test ./internal/testkit -run 'Differential/<pair-name>'
func TestDifferentialOracles(t *testing.T) {
	for _, p := range Pairs() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			if p.Tol > DefaultTol {
				t.Fatalf("oracle %s declares tolerance %g, above the %g ceiling", p.Name, p.Tol, DefaultTol)
			}
			for seed := int64(1); seed <= differentialSeeds; seed++ {
				if err := p.Run(NewGen(seed)); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestOracleRegistry pins the registry's own invariants: unique names,
// non-empty docs, and presence of the pairs the harness documentation
// promises (one per optimized subsystem).
func TestOracleRegistry(t *testing.T) {
	pairs := Pairs()
	seen := map[string]bool{}
	for _, p := range pairs {
		if p.Name == "" || p.Doc == "" {
			t.Errorf("oracle pair with empty name or doc: %+v", p)
		}
		if seen[p.Name] {
			t.Errorf("duplicate oracle pair name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Run == nil {
			t.Errorf("oracle pair %q has no Run", p.Name)
		}
	}
	for _, required := range []string{
		"fft/roundtrip",
		"fft/crosscorrelate-vs-direct",
		"fft/rfft-roundtrip",
		"fft/rfft-vs-complex",
		"fft/rfft-ncc-vs-direct",
		"sbd/fft-vs-reference",
		"sbd/nopow2-vs-reference",
		"sbd/nofft-vs-reference",
		"sbdbatch/batch-vs-pairwise",
		"sbdbatch/pairwise-and-nn",
		"sbdbatch/lb-prune-exact",
		"dtw/rolling-vs-fullmatrix",
		"lbkeogh/bound-chain",
		"eigen/power-vs-ql",
		"shape/power-vs-ql",
		"core/kshape-vs-lloyd",
		"pairwise/serial-vs-parallel",
		"ts/znorm-copy-vs-inplace",
	} {
		if !seen[required] {
			t.Errorf("registry is missing required oracle pair %q", required)
		}
	}
}

func TestCloseSemantics(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},
		{1, 1 + 1e-12, 1e-9, true},
		{1, 1 + 1e-6, 1e-9, false},
		{1e12, 1e12 * (1 + 1e-12), 1e-9, true}, // relative, not absolute
		{0, 1e-10, 1e-9, true},                 // absolute near zero
		{nan, nan, 1e-9, true},
		{nan, 1, 1e-9, false},
		{math.Inf(1), math.Inf(1), 1e-9, true},
		{math.Inf(1), math.Inf(-1), 1e-9, false},
		{math.Inf(1), 1e300, 1e-9, false},
	}
	for _, c := range cases {
		if got := Close(c.a, c.b, c.tol); got != c.want {
			t.Errorf("Close(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}
