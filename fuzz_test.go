package kshape

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"kshape/internal/testkit"
	"kshape/internal/ts"
)

// fuzzRows decodes a FuzzCluster input into rows of length m (m = 0 gives
// two zero-length rows). Finite values are sanitized into the fuzz domain
// like every other target's; NaN and ±Inf pass through so the facade's
// non-finite check stays exercised. A nonzero drop shortens the last row
// by 1 + drop%m values, making the input ragged.
func fuzzRows(m, drop int, data []byte) [][]float64 {
	if m == 0 {
		return [][]float64{{}, {}}
	}
	n := len(data) / 8
	if n > 256 {
		n = 256
	}
	vals := make([]float64, n)
	for i := range vals {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			v = testkit.SanitizeFloat(v)
		}
		vals[i] = v
	}
	var rows [][]float64
	for i := 0; i+m <= len(vals); i += m {
		rows = append(rows, vals[i:i+m])
	}
	if drop != 0 && len(rows) > 1 {
		last := rows[len(rows)-1]
		rows[len(rows)-1] = last[:len(last)-1-drop%m]
	}
	return rows
}

// checkRejection fails the fuzz case unless err wraps one of the public
// sentinels: every rejection of hostile input must be a typed one.
func checkRejection(t *testing.T, err error) {
	t.Helper()
	for _, sentinel := range []error{
		ErrNoData, ErrLength, ErrNonFinite, ErrBadK,
		ErrUnknownMethod, ErrUnknownMeasure, ErrLabelCount, ErrNoFiniteDistance,
	} {
		if errors.Is(err, sentinel) {
			return
		}
	}
	t.Fatalf("rejection %v wraps no kshape sentinel", err)
}

// FuzzCluster drives the public k-Shape entry point with hostile input:
// empty, ragged, non-finite, constant, tiny (n = 1, m = 1) and k up to
// and beyond n. Every input must either return an error that wraps a
// kshape sentinel or a valid clustering (labels in [0, k), finite
// centroids), and the result must be bit-identical at 1, 2 and 8 workers.
func FuzzCluster(f *testing.F) {
	f.Add(byte(2), byte(8), byte(0), testkit.EncodeFloats([]float64{
		0, 1, 2, 3, 2, 1, 0, -1, 3, 2, 1, 0, 1, 2, 3, 4,
		0, 1, 2, 3, 2, 1, 0, -1, 3, 2, 1, 0, 1, 2, 3, 4,
	}))
	f.Add(byte(2), byte(0), byte(0), []byte{})
	f.Fuzz(func(t *testing.T, kb, mb, drop byte, data []byte) {
		k, m := int(kb%10), int(mb%33)
		rows := fuzzRows(m, int(drop), data)
		var first *Result
		for _, w := range []int{1, 2, 8} {
			res, err := Cluster(rows, k, Options{Seed: 1, Workers: w})
			if w == 1 && err != nil {
				checkRejection(t, err)
				return
			}
			if err != nil {
				t.Fatalf("workers=%d: %v, but workers=1 succeeded", w, err)
			}
			if len(res.Labels) != len(rows) || len(res.Centroids) != k {
				t.Fatalf("workers=%d: %d labels for %d rows, %d centroids for k=%d",
					w, len(res.Labels), len(rows), len(res.Centroids), k)
			}
			for i, l := range res.Labels {
				if l < 0 || l >= k {
					t.Fatalf("workers=%d: label %d of series %d outside [0, %d)", w, l, i, k)
				}
			}
			for c, cen := range res.Centroids {
				for j, v := range cen {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("workers=%d: centroid %d has %v at %d", w, c, v, j)
					}
				}
			}
			if first == nil {
				first = res
				continue
			}
			for i := range first.Labels {
				if first.Labels[i] != res.Labels[i] {
					t.Fatalf("workers=%d: labels %v differ from workers=1 %v", w, res.Labels, first.Labels)
				}
			}
			for c := range first.Centroids {
				for j := range first.Centroids[c] {
					if math.Float64bits(first.Centroids[c][j]) != math.Float64bits(res.Centroids[c][j]) {
						t.Fatalf("workers=%d: centroid %d differs from workers=1 at %d", w, c, j)
					}
				}
			}
		}
	})
}

// FuzzClassify1NN drives the public SBD 1-NN entry point with hostile
// input: empty, ragged, non-finite, constant, duplicated rows with
// different labels, one training row and m = 1. The first n rows decoded
// from data train (labelled from lab, or by index when lab is empty) and
// the rest are queries. Every input must either return an error that
// wraps a kshape sentinel or labels drawn from the training labels, bit-identical at 1, 2 and 8 workers and
// equal to a brute-force SBDDistance scan over the z-normalized rows.
func FuzzClassify1NN(f *testing.F) {
	f.Add(byte(2), byte(8), byte(0), []byte{0, 1}, testkit.EncodeFloats([]float64{
		0, 1, 2, 3, 2, 1, 0, -1, 3, 2, 1, 0, 1, 2, 3, 4,
		0, 1, 2, 3, 3, 1, 0, -1,
	}))
	f.Add(byte(0), byte(0), byte(0), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, nb, mb, drop byte, lab, data []byte) {
		rows := fuzzRows(int(mb%33), int(drop), data)
		n := int(nb) % (len(rows) + 1)
		train, queries := rows[:n], rows[n:]
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
			if len(lab) > 0 {
				labels[i] = int(lab[i%len(lab)] % 4)
			}
		}
		var first []int
		for _, w := range []int{1, 2, 8} {
			pred, err := Classify1NNWorkers(train, labels, queries, "SBD", false, w)
			if w == 1 && err != nil {
				checkRejection(t, err)
				return
			}
			if err != nil {
				t.Fatalf("workers=%d: %v, but workers=1 succeeded", w, err)
			}
			if len(pred) != len(queries) {
				t.Fatalf("workers=%d: %d labels for %d queries", w, len(pred), len(queries))
			}
			if first == nil {
				first = pred
				continue
			}
			for i := range first {
				if pred[i] != first[i] {
					t.Fatalf("workers=%d: labels %v differ from workers=1 %v", w, pred, first)
				}
			}
		}
		for qi, q := range queries {
			zq := ts.ZNormalize(q)
			best, want := math.Inf(1), -1
			for i, x := range train {
				if d := SBDDistance(zq, ts.ZNormalize(x)); d < best {
					best, want = d, labels[i]
				}
			}
			if want < 0 {
				t.Fatalf("query %d: label %d, but no training series has a non-NaN SBD to it", qi, first[qi])
			}
			if first[qi] != want {
				t.Fatalf("query %d: label %d, the brute-force SBD scan gives %d (training labels %v)",
					qi, first[qi], want, labels)
			}
		}
	})
}
