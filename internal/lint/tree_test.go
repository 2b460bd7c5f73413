package lint

// Whole-tree regression tests: the interprocedural analyzers must be
// clean over the real module, and every //kshape:hotpath annotation in
// the tree must be backed by a testing.AllocsPerRun == 0 harness (or a
// written reason why none exists) via the manifest below. Adding an
// annotation without extending the manifest — or letting a harness rot
// away while its manifest entry still names it — fails here.

import (
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// hotPathHarnesses maps every annotated function (types.Func.FullName)
// to the AllocsPerRun test in its own package that pins it at zero
// allocations. A value not starting with "Test" is a reason string
// explaining why no direct harness exists; it must be non-empty.
var hotPathHarnesses = map[string]string{
	"(*kshape/internal/dist.SBDQuery).Distance":        "TestQueryDistanceAllocFree",
	"(*kshape/internal/dist.SBDQuery).DistanceScratch": "TestQueryDistanceAllocFree",
	"(*kshape/internal/dist.SBDQuery).Nearest":         "TestQueryIntoNearestAllocFree",
	"(*kshape/internal/dist.SBDBatch).PairDistance":    "TestPairDistanceAllocFree",
	"(*kshape/internal/dist.SBDBatch).pairwiseRows":    "TestPairwiseIntoRowLoopAllocFree",
	"kshape/internal/dist.scanCC":                      "TestQueryDistanceAllocFree",
	"(*kshape/internal/fft.RFFT).Forward":              "TestRFFTRoundTripAllocFree",
	"(*kshape/internal/fft.RFFT).Inverse":              "TestRFFTRoundTripAllocFree",
	"(*kshape/internal/fft.RFFT).transformHalf":        "TestRFFTRoundTripAllocFree",
	"kshape/internal/fft.conj":                         "TestRFFTRoundTripAllocFree",
	"kshape/internal/ts.ShiftInto":                     "TestShiftIntoAllocFree",
	"kshape/internal/par.sumFloatRange":                "TestReductionInnerLoopsAllocFree",
	"kshape/internal/par.sumFloats":                    "TestReductionInnerLoopsAllocFree",
	"kshape/internal/par.sumIntRange":                  "TestReductionInnerLoopsAllocFree",
	"kshape/internal/par.scanExtreme":                  "TestReductionInnerLoopsAllocFree",
	"kshape/internal/core.nearestCentroid":             "TestAssignmentScanAllocFree",
	"kshape/internal/core.alignMembers":                "TestAlignMembersAllocFree",
	"kshape/internal/core.equalFloatBits":              "TestAssignmentScanAllocFree",
	"kshape/internal/core.isAllZero":                   "TestAssignmentScanAllocFree",
	"(*kshape/internal/avg.shapeWork).extract":         "TestShapeExtractKernelAllocFree",
}

// loadTree loads and type-checks the whole module once per test that
// needs it (the go/types work dominates; skipped in -short runs).
func loadTree(t *testing.T) (*token.FileSet, []*Package) {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-module load is slow; skipped in -short")
	}
	fset := token.NewFileSet()
	pkgs, err := Load(fset, "../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded zero packages")
	}
	return fset, pkgs
}

// TestTreeInterprocClean is the acceptance gate in test form:
// hotpath, atomicinv, and ignoredrift report nothing on the real tree.
func TestTreeInterprocClean(t *testing.T) {
	fset, pkgs := loadTree(t)
	analyzers, err := Select("hotpath,atomicinv,ignoredrift", "")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram(fset, pkgs)
	for _, pkg := range pkgs {
		pass := &Pass{
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			PkgPath:   pkg.ImportPath,
			Prog:      prog,
		}
		for _, d := range pass.Run(analyzers) {
			t.Errorf("%s", d)
		}
	}
}

// TestHotPathAnnotationsHaveHarnesses cross-references the annotated
// functions in the tree against hotPathHarnesses in both directions and
// verifies every named harness actually exists in that package's
// _test.go files.
func TestHotPathAnnotationsHaveHarnesses(t *testing.T) {
	fset, pkgs := loadTree(t)
	prog := NewProgram(fset, pkgs)
	annotated := map[string]*FuncInfo{}
	for fn, fi := range prog.fns {
		if fi.Hot {
			annotated[fn.FullName()] = fi
		}
	}
	var names []string
	for name := range annotated {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		entry, ok := hotPathHarnesses[name]
		if !ok {
			t.Errorf("%s is annotated //kshape:hotpath but missing from hotPathHarnesses; add its AllocsPerRun harness (or a reason)", name)
			continue
		}
		if entry == "" {
			t.Errorf("%s has an empty manifest entry; name a Test harness or write a reason", name)
			continue
		}
		if !strings.HasPrefix(entry, "Test") {
			continue // a written reason stands in for a harness
		}
		dir := annotated[name].Pkg.Dir
		if !testFuncExists(t, dir, entry) {
			t.Errorf("%s names harness %s, but no _test.go in %s defines it", name, entry, dir)
		}
	}
	for name := range hotPathHarnesses {
		if _, ok := annotated[name]; !ok {
			t.Errorf("manifest entry %s matches no //kshape:hotpath function; the annotation moved or was removed", name)
		}
	}
}

// testFuncExists scans dir's _test.go files for a test function with
// the given name.
func testFuncExists(t *testing.T, dir, name string) bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	needle := "func " + name + "("
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading %s: %v", e.Name(), err)
		}
		if strings.Contains(string(src), needle) {
			return true
		}
	}
	return false
}
