package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scanShift is the shift checkScan offers with candidate j's distance.
func scanShift(j int) int { return 3*j - 7 }

// checkScan drives a Scan over bounds with the exact distances dists
// (each bound at most its distance, or −Inf) and checks it against the
// unpruned ascending strict-< scan: the index, distance bits and shift of
// the nearest and, with top2, the exact second-nearest distance. With
// skips non-nil, every candidate Next returns, the seed included, first
// meets Skip with its second bound skips[j]. It also checks every pruning
// decision: the seed comes first, then each other candidate in ascending
// order is skipped exactly when its bound, or else its second bound,
// exceeds by more than ScanMargin the smallest (with top2 the
// second-smallest) non-NaN distance evaluated before it; each evaluated
// candidate's row entry becomes its distance, and each skipped one holds
// the bound that skipped it.
func checkScan(t *testing.T, what string, dists, bounds, skips []float64, seed int, top2 bool) {
	t.Helper()
	row := append([]float64(nil), bounds...)
	var s Scan
	s.Reset(row, seed, top2)
	var order []int
	for j, ok := s.Next(); ok; j, ok = s.Next() {
		if skips != nil && s.Skip(skips[j]) {
			continue
		}
		order = append(order, j)
		s.Offer(dists[j], scanShift(j))
	}
	idx, d, second, shift := s.Result()

	wantIdx, wantD, wantShift := -1, math.Inf(1), 0
	for j, dj := range dists {
		if dj < wantD {
			wantIdx, wantD, wantShift = j, dj, scanShift(j)
		}
	}
	if idx != wantIdx || math.Float64bits(d) != math.Float64bits(wantD) || shift != wantShift {
		t.Fatalf("%s: scan of %v (bounds %v, seed %d, top2 %v) = (%d, %v, shift %d), unpruned (%d, %v, shift %d)",
			what, dists, bounds, seed, top2, idx, d, shift, wantIdx, wantD, wantShift)
	}
	if top2 {
		wantSecond := math.Inf(1)
		for j, dj := range dists {
			if j != wantIdx && dj < wantSecond {
				wantSecond = dj
			}
		}
		//lint:ignore floatcmp the runner-up must be exact
		if second != wantSecond {
			t.Fatalf("%s: runner-up of %v (bounds %v, seed %d) = %v, exact %v", what, dists, bounds, seed, second, wantSecond)
		}
	}

	lo1, lo2 := math.Inf(1), math.Inf(1)
	visit := func(j int) {
		if math.Float64bits(row[j]) != math.Float64bits(dists[j]) {
			t.Fatalf("%s: row[%d] = %v after evaluation, want the distance %v", what, j, row[j], dists[j])
		}
		if dists[j] < lo1 {
			lo1, lo2 = dists[j], lo1
		} else if dists[j] < lo2 {
			lo2 = dists[j]
		}
	}
	next, pruned := 0, 0
	if len(dists) > 0 {
		if len(order) == 0 || order[0] != seed {
			t.Fatalf("%s: evaluation order %v does not start with the seed %d", what, order, seed)
		}
		visit(seed)
		next = 1
	}
	for j := range dists {
		if j == seed {
			continue
		}
		limit := lo1
		if top2 {
			limit = lo2
		}
		bound := bounds[j]
		skip := bound > limit+ScanMargin
		if !skip && skips != nil {
			bound = skips[j]
			skip = bound > limit+ScanMargin
		}
		if evaluated := next < len(order) && order[next] == j; evaluated == skip {
			t.Fatalf("%s: candidate %d (bounds %v, limit %v) evaluated %v; order %v of %v (seed %d, top2 %v)",
				what, j, bound, limit, evaluated, order, dists, seed, top2)
		}
		if skip {
			pruned++
			if math.Float64bits(row[j]) != math.Float64bits(bound) {
				t.Fatalf("%s: row[%d] = %v after a skip, want the bound %v", what, j, row[j], bound)
			}
			continue
		}
		visit(j)
		next++
	}
	if next != len(order) || pruned != s.Pruned {
		t.Fatalf("%s: %d of %d evaluations accounted, %d pruned, Pruned %d", what, next, len(order), pruned, s.Pruned)
	}
}

// scanBounds turns gap codes into lower bounds: code 255 is −Inf, any
// other code g the bound d − g/16 (g = 0 the distance itself).
func scanBounds(dists []float64, gaps []byte) []float64 {
	bounds := make([]float64, len(dists))
	for j, d := range dists {
		g := byte(0)
		if j < len(gaps) {
			g = gaps[j]
		}
		bounds[j] = d - float64(g)/16
		if g == 255 {
			bounds[j] = math.Inf(-1)
		}
	}
	return bounds
}

// TestScanMatchesUnprunedScan checks Scan on random rows, drawn from a
// small value set so exact ties (and ties within ScanMargin) are
// frequent, at every seed, alternating the mode, and with Skip's second
// bounds on two trials of three; FuzzScan's seeds cover the IEEE edge
// cases.
func TestScanMatchesUnprunedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small := []float64{0, 0.25, 0.5, 0.5 + ScanMargin/2, 1, 1.5}
	codes := []byte{0, 0, 1, 4, 16, 255}
	for trial := 0; trial < 500; trial++ {
		n := 1 + trial%9
		dists, gaps, gaps2 := make([]float64, n), make([]byte, n), make([]byte, n)
		for j := range dists {
			dists[j] = small[rng.Intn(len(small))]
			gaps[j] = codes[rng.Intn(len(codes))]
			gaps2[j] = codes[rng.Intn(len(codes))]
		}
		var skips []float64
		if trial%3 != 0 {
			skips = scanBounds(dists, gaps2)
		}
		for seed := 0; seed < n; seed++ {
			checkScan(t, fmt.Sprintf("trial %d", trial), dists, scanBounds(dists, gaps), skips, seed, trial%2 == 0)
		}
	}
}

// FuzzScan checks Scan against the unpruned scan (checkScan) on raw
// float64 distances, 8 bytes each, little endian, NaN and ±Inf included;
// gaps[j] turns distance j into its bound (scanBounds), gaps2, unless
// empty, into its second bound for Skip, and seed picks the seed modulo
// the row length. The seeds are the empty row, a NaN seed in both modes
// (a NaN limit once stopped all pruning and made the runner-up the
// nearest), all NaN, exact ties, signed zeros, the infinities, second
// bounds that skip what the first ones let through, in both modes, and a
// second bound exactly the margin above the limit, which must not skip.
func FuzzScan(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	encode := func(vals ...float64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	none := []byte{}
	f.Add(encode(), none, none, byte(0), false)
	f.Add(encode(nan, 0.5, 0.9, 1.2), []byte{0, 0, 1}, none, byte(0), false)
	f.Add(encode(nan, 0.5, 0.9, 1.2), []byte{0, 0, 1}, none, byte(0), true)
	f.Add(encode(nan, nan, nan), none, none, byte(1), true)
	f.Add(encode(0.3, 0.3, 0.7, 0.3), none, none, byte(3), true)
	f.Add(encode(0, math.Copysign(0, -1), 0), none, none, byte(1), false)
	f.Add(encode(inf, inf), none, none, byte(1), true)
	f.Add(encode(inf, math.Inf(-1), inf, nan, math.Inf(-1)), []byte{0, 0, 255, 3}, none, byte(4), false)
	f.Add(encode(0.2, 0.5, 0.9, 0.4, 1.2), []byte{255, 255, 255, 255, 255}, []byte{0, 16, 1, 0, 4}, byte(0), false)
	f.Add(encode(0.2, 0.5, 0.9, 0.4, 1.2), []byte{255, 255, 255, 255, 255}, []byte{0, 16, 1, 0, 4}, byte(2), true)
	f.Add(encode(0.3, nan, 0.3, inf), []byte{255, 0, 255, 255}, []byte{0, 0, 0, 255}, byte(1), true)
	f.Add(encode(0.5, 0.5+ScanMargin), []byte{255, 255}, []byte{0, 0}, byte(0), false)
	f.Fuzz(func(t *testing.T, data, gaps, gaps2 []byte, seed byte, top2 bool) {
		dists := make([]float64, len(data)/8)
		for j := range dists {
			dists[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*j:]))
		}
		s := 0
		if len(dists) > 0 {
			s = int(seed) % len(dists)
		}
		var skips []float64
		if len(gaps2) > 0 {
			skips = scanBounds(dists, gaps2)
		}
		checkScan(t, "fuzz input", dists, scanBounds(dists, gaps), skips, s, top2)
	})
}

// TestScanAllocFree pins Scan's steady state, Skip included, at zero
// allocations in both modes: the bound row is the caller's.
func TestScanAllocFree(t *testing.T) {
	dists := []float64{0.7, 0.2, 0.9, 0.2, 1.4, 0.3, 1.9, 0.8}
	row := make([]float64, len(dists))
	var s Scan
	i := 0
	if n := testing.AllocsPerRun(50, func() {
		copy(row, dists)
		s.Reset(row, i%len(row), i%2 == 0)
		for j, ok := s.Next(); ok; j, ok = s.Next() {
			if !s.Skip(dists[j] - 0.1) {
				s.Offer(dists[j], j)
			}
		}
		s.Result()
		i++
	}); n != 0 {
		t.Errorf("a Scan allocates %v per run, want 0", n)
	}
}
