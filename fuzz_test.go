package kshape

import (
	"encoding/binary"
	"math"
	"testing"

	"kshape/internal/testkit"
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

// FuzzCluster drives the public k-Shape entry point with hostile input:
// empty, ragged, non-finite, constant, tiny (n = 1, m = 1) and k up to
// and beyond n. Every input must either return an error or a valid
// clustering (labels in [0, k), finite centroids), and the result must be
// bit-identical at 1, 2 and 8 workers.
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
