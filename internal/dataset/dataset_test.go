package dataset

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kshape/internal/dist"
	"kshape/internal/ts"
)

func TestArchiveHas48DistinctDatasets(t *testing.T) {
	specs := ArchiveSpecs()
	if len(specs) != 48 {
		t.Fatalf("archive size = %d, want 48", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate dataset name %q", s.Name)
		}
		names[s.Name] = true
		if len(s.Classes) < 2 {
			t.Errorf("%s: %d classes", s.Name, len(s.Classes))
		}
		if s.M < 24 {
			t.Errorf("%s: length %d below UCR minimum-like 24", s.Name, s.M)
		}
	}
}

func TestGenerateShapeAndNormalization(t *testing.T) {
	ds := Generate(ArchiveSpecs()[0])
	if ds.K < 2 || len(ds.All()) == 0 {
		t.Fatalf("degenerate dataset %+v", ds)
	}
	for _, s := range ds.All() {
		if s.Len() != ds.M {
			t.Fatalf("series length %d, want %d", s.Len(), ds.M)
		}
		if !ts.IsZNormalized(s.Values, 1e-6) {
			t.Fatal("series not z-normalized")
		}
		if s.Label < 0 || s.Label >= ds.K {
			t.Fatalf("label %d out of range", s.Label)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := ArchiveSpecs()[5]
	a := Generate(spec)
	b := Generate(spec)
	for i := range a.Train {
		for j := range a.Train[i].Values {
			if a.Train[i].Values[j] != b.Train[i].Values[j] {
				t.Fatal("same spec+seed produced different data")
			}
		}
	}
}

func TestGeneratePanicsOnBadSpec(t *testing.T) {
	for _, spec := range []Spec{
		{Name: "one-class", M: 32, Classes: []ClassProto{SineProto(1, 0)}},
		{Name: "tiny", M: 2, Classes: []ClassProto{SineProto(1, 0), SineProto(2, 0)}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %q should panic", spec.Name)
				}
			}()
			Generate(spec)
		}()
	}
}

func TestArchiveByName(t *testing.T) {
	ds, ok := ArchiveByName("CBF")
	if !ok || ds.Name != "CBF" {
		t.Fatal("CBF not found")
	}
	if _, ok := ArchiveByName("NoSuchDataset"); ok {
		t.Error("bogus name found")
	}
}

func TestArchiveDatasetsAreLearnable(t *testing.T) {
	// Sanity: on every archive dataset, 1-NN with SBD must beat chance by a
	// solid margin — classes are meant to differ in shape.
	if testing.Short() {
		t.Skip("full archive scan is slow")
	}
	for _, spec := range ArchiveSpecs() {
		ds := Generate(spec)
		refs := ts.Rows(ds.Train)
		correct := 0
		for _, q := range ds.Test {
			idx, _ := dist.NNIndex(dist.SBDMeasure{}, q.Values, refs)
			if ds.Train[idx].Label == q.Label {
				correct++
			}
		}
		acc := float64(correct) / float64(len(ds.Test))
		chance := 1.0 / float64(ds.K)
		if acc < chance+0.15 {
			t.Errorf("%s: SBD 1-NN accuracy %.3f barely above chance %.3f", ds.Name, acc, chance)
		}
	}
}

func TestCBFGenerator(t *testing.T) {
	data := CBF(30, 128, 7)
	if len(data) != 30 {
		t.Fatalf("n = %d", len(data))
	}
	labels := map[int]int{}
	for _, s := range data {
		if s.Len() != 128 {
			t.Fatalf("length = %d", s.Len())
		}
		if !ts.IsZNormalized(s.Values, 1e-6) {
			t.Fatal("not z-normalized")
		}
		labels[s.Label]++
	}
	if len(labels) != 3 {
		t.Errorf("classes = %v, want 3", labels)
	}
	// Determinism.
	again := CBF(30, 128, 7)
	for i := range data {
		for j := range data[i].Values {
			if data[i].Values[j] != again[i].Values[j] {
				t.Fatal("CBF not deterministic for a fixed seed")
			}
		}
	}
}

func TestCBFClassesAreShapeDistinct(t *testing.T) {
	// Cylinder vs bell vs funnel should be separable by SBD 1-NN.
	train := CBF(60, 128, 1)
	test := CBF(30, 128, 2)
	refs := ts.Rows(train)
	correct := 0
	for _, q := range test {
		idx, _ := dist.NNIndex(dist.SBDMeasure{}, q.Values, refs)
		if train[idx].Label == q.Label {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.7 {
		t.Errorf("CBF SBD 1-NN accuracy = %v, want >= 0.7", acc)
	}
}

func TestWarpPreservesLengthAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 64)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 64)
	}
	w := warp(x, 0.05, rng)
	if len(w) != len(x) {
		t.Fatalf("length changed: %d", len(w))
	}
	for i, v := range w {
		if v < -1.01 || v > 1.01 {
			t.Fatalf("warp extrapolated at %d: %v", i, v)
		}
	}
	// Zero strength is the identity.
	same := warp(x, 0, rng)
	for i := range x {
		if same[i] != x[i] {
			t.Fatal("warp(0) should be identity")
		}
	}
}

func TestProtoShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := 64
	protos := map[string]ClassProto{
		"sine":     SineProto(2, 0),
		"square":   SquareProto(2),
		"triangle": TriangleProto(2),
		"sawtooth": SawtoothProto(2),
		"chirp":    ChirpProto(1, 4),
		"gauss":    GaussProto(0.5, 0.1),
		"dgauss":   DoubleGaussProto(0.3, 0.7, 0.08, 1),
		"step":     StepProto(0.5),
		"trend":    TrendProto(1, 2, 0.3),
		"ecgA":     ECGSharpProto(),
		"ecgB":     ECGGradualProto(),
		"cyl":      CBFCylinderProto(),
		"bell":     CBFBellProto(),
		"funnel":   CBFFunnelProto(),
		"updown":   upDownProto(1, -1),
	}
	for name, p := range protos {
		x := p(m, rng)
		if len(x) != m {
			t.Errorf("%s: length %d", name, len(x))
		}
		allZero := true
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: non-finite value", name)
				break
			}
			if v != 0 {
				allZero = false
			}
		}
		if allZero {
			t.Errorf("%s: degenerate all-zero prototype", name)
		}
	}
}

func TestStepProtoPlacesStep(t *testing.T) {
	x := StepProto(0.5)(10, nil)
	if x[4] != 0 || x[5] != 1 {
		t.Errorf("step = %v", x)
	}
}

func TestParseUCRCommaAndTab(t *testing.T) {
	for _, content := range []string{
		"1,0.5,1.5,2.5\n2,3.5,4.5,5.5\n",
		"1\t0.5\t1.5\t2.5\n2\t3.5\t4.5\t5.5\n",
		"1 0.5 1.5 2.5\n\n2 3.5 4.5 5.5\n",
		"1.0,0.5,1.5,2.5\n2.0,3.5,4.5,5.5\n", // float labels
	} {
		got, err := ParseUCR(strings.NewReader(content))
		if err != nil {
			t.Fatalf("%q: %v", content, err)
		}
		if len(got) != 2 || got[0].Label != 1 || got[1].Label != 2 {
			t.Fatalf("%q: parsed %+v", content, got)
		}
		if got[0].Len() != 3 || got[0].Values[0] != 0.5 {
			t.Fatalf("%q: values %+v", content, got[0])
		}
	}
}

func TestParseUCRErrors(t *testing.T) {
	cases := []string{
		"",                 // empty
		"1\n",              // no values
		"x,1,2\n",          // bad label
		"1.5,1,2\n",        // non-integer label
		"1,a,b\n",          // bad value
		"1,1,2\n2,1,2,3\n", // ragged
	}
	for _, c := range cases {
		if _, err := ParseUCR(strings.NewReader(c)); err == nil {
			t.Errorf("content %q: expected error", c)
		}
	}
}

func TestLoadUCRDatasetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	testPath := filepath.Join(dir, "test.tsv")
	if err := os.WriteFile(trainPath, []byte("0,1,2,3\n1,4,5,6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(testPath, []byte("0,1,2,4\n1,4,5,7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadUCRDataset("toy", trainPath, testPath)
	if err != nil {
		t.Fatal(err)
	}
	if ds.K != 2 || ds.M != 3 || len(ds.All()) != 4 {
		t.Errorf("dataset = %+v", ds)
	}
	if _, err := LoadUCRDataset("x", filepath.Join(dir, "missing"), testPath); err == nil {
		t.Error("missing file accepted")
	}
	// Mismatched lengths across splits.
	longPath := filepath.Join(dir, "long.tsv")
	if err := os.WriteFile(longPath, []byte("0,1,2,3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadUCRDataset("x", trainPath, longPath); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestDatasetAllAndN(t *testing.T) {
	ds := Dataset{
		Train: []ts.Series{ts.NewLabeled([]float64{1}, 0)},
		Test:  []ts.Series{ts.NewLabeled([]float64{2}, 1), ts.NewLabeled([]float64{3}, 0)},
	}
	all := ds.All()
	if len(all) != 3 || all[0].Values[0] != 1 || all[2].Values[0] != 3 {
		t.Errorf("All = %v, want train then test in order", all)
	}
}
