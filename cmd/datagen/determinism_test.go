package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"kshape/internal/dataset"
	"kshape/internal/dist"
	"kshape/internal/eval"
	"kshape/internal/ts"
)

// readFile loads one generated file or fails the test.
func readFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunDeterministicArchive pins the reproducibility contract: two
// invocations with identical flags must write byte-identical files, since
// every generator derives from fixed per-dataset seeds.
func TestRunDeterministicArchive(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	for _, dir := range []string{dirA, dirB} {
		if err := run([]string{"-dir", dir, "-name", "CBF"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"CBF_TRAIN.tsv", "CBF_TEST.tsv"} {
		a, b := readFile(t, dirA, name), readFile(t, dirB, name)
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two identical runs (%d vs %d bytes)", name, len(a), len(b))
		}
	}
}

// TestRunDeterministicCBFWorkload does the same for the CBF scalability
// workload, and checks that the seed flag actually changes the output.
func TestRunDeterministicCBFWorkload(t *testing.T) {
	dirA, dirB, dirC := t.TempDir(), t.TempDir(), t.TempDir()
	for dir, seed := range map[string]string{dirA: "7", dirB: "7", dirC: "8"} {
		if err := run([]string{"-dir", dir, "-cbf-n", "15", "-cbf-m", "64", "-seed", seed}); err != nil {
			t.Fatal(err)
		}
	}
	const name = "CBF_n15_m64.tsv"
	a, b, c := readFile(t, dirA, name), readFile(t, dirB, name), readFile(t, dirC, name)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different CBF workloads")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical CBF workloads")
	}
}

// TestGeneratedDataCarriesClassSignal guards against the generator
// emitting label-free noise: 1-NN under ED on the written CBF train/test
// split must beat 3-class chance by a wide margin.
func TestGeneratedDataCarriesClassSignal(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-dir", dir, "-name", "CBF"}); err != nil {
		t.Fatal(err)
	}
	load := func(name string) []ts.Series {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		series, err := dataset.ParseUCR(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return series
	}
	train := load("CBF_TRAIN.tsv")
	test := load("CBF_TEST.tsv")
	acc := eval.OneNNAccuracyWorkers(dist.EDMeasure{}, train, test, 0)
	if acc < 0.6 {
		t.Errorf("1-NN accuracy %v on generated CBF; chance is 1/3", acc)
	}
}
