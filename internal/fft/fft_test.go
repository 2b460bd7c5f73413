package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 7: 8, 8: 8, 9: 16, 1023: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestNextPow2PanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NextPow2(%d) should panic", n)
				}
			}()
			NextPow2(n)
		}()
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 64, 4096} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 12, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

// realDFT returns bins 0..n/2 of the direct O(n²) DFT of the real input x
// zero-padded to n. Reducing r·k mod n before scaling keeps the angle
// exact however long the input.
func realDFT(x []float64, n int) []complex128 {
	out := make([]complex128, n/2+1)
	for k := range out {
		var s complex128
		for r, v := range x {
			ang := -2 * math.Pi * float64(r*k%n) / float64(n)
			s += complex(v, 0) * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

// randSeries returns n standard-normal samples.
func randSeries(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestForwardMatchesNaiveDFT checks the shared plans' forward transform
// against the direct O(n²) DFT on every shared bin.
func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		p := Plan(n)
		x := randSeries(rng, n)
		want := realDFT(x, n)
		got := make([]complex128, p.SpectrumLen())
		p.Forward(x, got, make([]complex128, p.WorkLen()))
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > 1e-8*float64(n) {
				t.Fatalf("n=%d: Forward[%d] = %v, want %v", n, k, got[k], want[k])
			}
		}
	}
}

// TestForwardInverseRoundTrip round-trips through the shared plans and
// pins the table's identity: one plan per length, reused on every call.
func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 8, 128, 1024} {
		p := Plan(n)
		if Plan(n) != p || p.Len() != n {
			t.Fatalf("n=%d: Plan is not one shared plan of length n", n)
		}
		x := randSeries(rng, n)
		spec := make([]complex128, p.SpectrumLen())
		work := make([]complex128, p.WorkLen())
		y := make([]float64, n)
		p.Forward(x, spec, work)
		p.CrossCorrelate(spec, onesSpectrum(p), y, work)
		for i := range x {
			if math.Abs(y[i]-x[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: round trip[%d] = %v, want %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestForwardPanicsOnNonPow2(t *testing.T) {
	for _, n := range []int{0, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Plan(%d) should panic", n)
				}
			}()
			Plan(n)
		}()
	}
}

// TestPlanConcurrentFirstUse races first use of fresh lengths: every
// goroutine must get the same plan (run under -race to check the table's
// publication).
func TestPlanConcurrentFirstUse(t *testing.T) {
	const goroutines = 8
	lengths := []int{1 << 11, 1 << 12, 1 << 13}
	got := make([][]*RFFT, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range lengths {
				got[g] = append(got[g], Plan(n))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, p := range got[g] {
			if p != got[0][i] || p.Len() != lengths[i] {
				t.Fatalf("goroutine %d length %d: got a different or wrong plan", g, lengths[i])
			}
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	// sum x² == (1/n) sum |X_k|² over all n bins; the half-spectrum holds
	// bins 0 and n/2 once and every other bin for itself and its mirror.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		p := Plan(n)
		x := randSeries(rng, n)
		var tx float64
		for _, v := range x {
			tx += v * v
		}
		spec := make([]complex128, p.SpectrumLen())
		p.Forward(x, spec, make([]complex128, p.WorkLen()))
		var tf float64
		for k, v := range spec {
			e := real(v)*real(v) + imag(v)*imag(v)
			if k != 0 && k != n/2 {
				e *= 2
			}
			tf += e
		}
		return math.Abs(tx-tf/float64(n)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCrossCorrelateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{1, 2, 5, 17, 64, 100, 257} {
		x := randSeries(rng, m)
		y := randSeries(rng, m)
		fast := Plan(NextPow2(2*m-1)).Correlate(x, y)
		slow := CrossCorrelateNaive(x, y)
		if len(fast) != 2*m-1 || len(slow) != 2*m-1 {
			t.Fatalf("m=%d: lengths %d, %d; want %d", m, len(fast), len(slow), 2*m-1)
		}
		for w := range slow {
			if math.Abs(fast[w]-slow[w]) > 1e-7 {
				t.Fatalf("m=%d: CC[%d] = %v (fft) vs %v (naive)", m, w, fast[w], slow[w])
			}
		}
	}
	if Plan(4).Correlate(nil, []float64{1}) != nil {
		t.Error("empty input should give nil")
	}
}

func TestCrossCorrelateUnequalLengths(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 1}
	for _, pair := range [][2][]float64{{x, y}, {y, x}} {
		fast := Plan(8).Correlate(pair[0], pair[1])
		slow := CrossCorrelateNaive(pair[0], pair[1])
		if len(fast) != len(x)+len(y)-1 {
			t.Fatalf("len = %d", len(fast))
		}
		for w := range slow {
			if math.Abs(fast[w]-slow[w]) > 1e-9 {
				t.Fatalf("CC[%d] = %v vs %v", w, fast[w], slow[w])
			}
		}
	}
}

func TestCrossCorrelatePeakAtKnownShift(t *testing.T) {
	// y is x delayed by 3 samples; the correlation peak must sit at lag +3,
	// i.e. index (m-1)+3.
	m := 32
	x := make([]float64, m)
	x[5] = 1 // impulse
	y := make([]float64, m)
	y[8] = 1                        // impulse delayed by 3
	cc := Plan(2*m).Correlate(y, x) // sum x-shifted: peak where y[l+k] matches x[l]
	best, bestW := math.Inf(-1), -1
	for w, v := range cc {
		if v > best {
			best, bestW = v, w
		}
	}
	if lag := bestW - (m - 1); lag != 3 {
		t.Errorf("peak at lag %d, want 3", lag)
	}
}

// TestCrossCorrelateLenCustomPadding correlates on plans longer than the
// minimal one — the SBD_NoPow2 model runs at twice the padded length.
func TestCrossCorrelateLenCustomPadding(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{4, 3, 2, 1}
	ref := CrossCorrelateNaive(x, y)
	for _, n := range []int{8, 16, 32} {
		got := Plan(n).Correlate(x, y)
		for w := range ref {
			if math.Abs(got[w]-ref[w]) > 1e-9 {
				t.Fatalf("padding %d: CC[%d] = %v, want %v", n, w, got[w], ref[w])
			}
		}
	}
}

func TestCrossCorrelateLenRejectsBadPadding(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for transform length below 2m-1")
		}
	}()
	Plan(4).Correlate([]float64{1, 2, 3}, []float64{1, 2, 3})
}
