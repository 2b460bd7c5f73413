package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// encodePool serialises every generated number of a job pool.
func encodePool(pool []job) []byte {
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	rows := func(xs [][]float64) {
		u(uint64(len(xs)))
		for _, x := range xs {
			u(uint64(len(x)))
			for _, v := range x {
				u(math.Float64bits(v))
			}
		}
	}
	ints := func(xs []int) {
		u(uint64(len(xs)))
		for _, v := range xs {
			u(uint64(v))
		}
	}
	for _, j := range pool {
		rows(j.data)
		ints(j.labels)
		u(uint64(j.k))
		u(uint64(j.seed))
		u(uint64(j.maxIter))
		rows(j.queries)
		ints(j.qlabels)
	}
	return b
}

func TestGenerationIsByteIdenticalForASeed(t *testing.T) {
	for _, w := range workloads {
		a, b := encodePool(w.gen(7)), encodePool(w.gen(7))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", w.name)
		}
		if bytes.Equal(a, encodePool(w.gen(8))) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w.name)
		}
	}
}

func TestWorkloadSizes(t *testing.T) {
	want := map[string]struct{ n, m, k, maxIter, queries int }{
		"kshape-cbf-long":    {cbfN, cbfM, cbfK, cbfMaxIter, 0},
		"kshape-shapes-many": {shapesK * shapesPerClass, shapesM, shapesK, shapesMaxIter, 0},
		"knn-sbd":            {shapesK * knnTrainPerClass, knnM, 0, 0, shapesK * knnQueriesPerClass},
	}
	for _, w := range workloads {
		sz, ok := want[w.name]
		if !ok {
			t.Errorf("unexpected workload %s", w.name)
			continue
		}
		pool := w.gen(1)
		if len(pool) != poolSize {
			t.Errorf("%s: pool of %d, want %d", w.name, len(pool), poolSize)
		}
		for _, j := range pool {
			if len(j.data) != sz.n || len(j.data[0]) != sz.m || j.k != sz.k || j.maxIter != sz.maxIter || len(j.queries) != sz.queries {
				t.Fatalf("%s: job of n=%d m=%d k=%d maxIter=%d queries=%d, want %+v", w.name, len(j.data), len(j.data[0]), j.k, j.maxIter, len(j.queries), sz)
			}
		}
	}
}
