package lint

// Whole-tree regression tests: the interprocedural analyzers must be
// clean over the real module, and every //kshape:hotpath annotation in
// the tree must be backed by a testing.AllocsPerRun == 0 harness (or a
// written reason why none exists) via the manifest below. Adding an
// annotation without extending the manifest — or letting a harness rot
// away while its manifest entry still names it — fails here.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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
	"kshape/internal/par.sumIntRange":                  "TestReductionInnerLoopsAllocFree",
	"kshape/internal/par.scanExtreme":                  "TestReductionInnerLoopsAllocFree",
	"kshape/internal/core.scanCentroids":               "TestAssignmentScanAllocFree",
	"kshape/internal/core.unitDrift":                   "TestAssignmentScanAllocFree",
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

// reachAllowlist names the production declarations that no production
// root reaches but that stay on purpose, each with the reason. A key is
// a package path (the whole package is exempt), pkgpath.Name for a
// package-level object, or types.Func.FullName for a method.
var reachAllowlist = map[string]string{
	"kshape/internal/testkit":                      "test-support package: oracles, generators and goldens shared by the _test.go files of many packages",
	"kshape/internal/ts.IsZNormalized":             "predicate the ts, dist and testkit tests assert z-normalized output with",
	"kshape/internal/ts.Reverse":                   "reference the SBD tests build reversed-order cross-correlations with",
	"(*kshape/internal/linalg.Sym).Clone":          "the eigensolver tests copy a matrix before a destructive solve",
	"kshape/internal/obs.NumHistogramBuckets":      "the histogram tests size their expected bucket tables with it",
	"kshape/internal/experiments.ResetMatrixCache": "experiment tests clear the process-wide distance-matrix cache between runs",
	"kshape/internal/dist.Func":                    "the distance tests and oracles range over measures through this signature",
}

// implicitMethods are method names the standard library calls through an
// interface (fmt, encoding/json, sort, net/http, io, log/slog's
// LogValuer, go/types' Importer), so no selector in the module names the
// call.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true,
	"Len": true, "Less": true, "Swap": true,
	"ServeHTTP": true, "Write": true, "Read": true, "Close": true,
	"LogValue": true, "Import": true,
}

// TestProductionCodeIsReachable fails on any production declaration
// that nothing runs. The roots are every main and init function (and
// blank var initializers), every exported identifier of package kshape
// and every module identifier the perfbench/ module references. A declaration is reached when reached
// code references it; a method is also reached when its receiver type is
// reached and reached code calls a method of that name (interface
// dispatch). Test files are not loaded, so a symbol only tests call is
// unreached: delete it with its tests, or allowlist it with a reason.
func TestProductionCodeIsReachable(t *testing.T) {
	fset, pkgs := loadTree(t)
	// decl is one declaration; span covers its doc comment and, for a
	// lone spec, its type/var/const keyword, for the report's line count.
	type decl struct {
		node       ast.Node
		pkg        *Package
		start, end token.Pos
	}
	decls := map[types.Object]decl{}
	methods := map[*types.TypeName][]*types.Func{}
	var roots []decl
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main") {
						roots = append(roots, decl{node: d, pkg: pkg})
						continue
					}
					if obj == nil {
						continue
					}
					decls[obj] = decl{d, pkg, declStart(d.Doc, d), d.End()}
					if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
						if tn := receiverTypeName(recv.Type()); tn != nil {
							methods[tn] = append(methods[tn], obj)
						}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						doc := d.Doc
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
							if s.Doc != nil {
								doc = s.Doc
							}
						case *ast.ValueSpec:
							names = s.Names
							if s.Doc != nil {
								doc = s.Doc
							}
						}
						var span ast.Node = spec
						if len(d.Specs) == 1 {
							span = d
						}
						for _, name := range names {
							if name.Name == "_" {
								// A blank var's initializer runs at package init.
								roots = append(roots, decl{node: spec, pkg: pkg})
								continue
							}
							if obj := pkg.Info.Defs[name]; obj != nil {
								decls[obj] = decl{spec, pkg, declStart(doc, span), span.End()}
							}
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	called := map[string]bool{}
	for name := range implicitMethods {
		called[name] = true
	}
	var work []types.Object
	reach := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if _, ok := decls[obj]; ok && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	walk := func(n ast.Node, pkg *Package) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pkg.Info.Uses[id]
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				called[fn.Name()] = true
			}
			if obj != nil {
				reach(obj)
			}
			return true
		})
	}
	for _, pkg := range pkgs {
		if pkg.ImportPath != "kshape" {
			continue
		}
		for obj := range decls {
			if obj.Pkg() == pkg.Types && obj.Exported() {
				reach(obj)
			}
		}
	}
	perfbenchRefs(t, pkgs, reach, called)
	for _, r := range roots {
		walk(r.node, r.pkg)
	}
	// Drain the worklist, then reach the methods that reached types
	// dispatch by name; repeat while that adds work.
	for len(work) > 0 {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			walk(decls[obj].node, decls[obj].pkg)
		}
		for tn, ms := range methods {
			if !reached[tn] {
				continue
			}
			for _, m := range ms {
				if called[m.Name()] {
					reach(m)
				}
			}
		}
	}

	var unreached []string
	used := map[string]bool{}
	for obj, d := range decls {
		if reached[obj] {
			continue
		}
		key := obj.Pkg().Path() + "." + obj.Name()
		keys := []string{key, obj.Pkg().Path()}
		if fn, ok := obj.(*types.Func); ok {
			key = fn.FullName()
			keys[0] = key
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if tn := receiverTypeName(recv.Type()); tn != nil {
					keys = append(keys, tn.Pkg().Path()+"."+tn.Name()) // an allowlisted type keeps its methods
				}
			}
		}
		if k := allowlisted(keys); k != "" {
			used[k] = true
			continue
		}
		start, end := fset.Position(d.start), fset.Position(d.end)
		unreached = append(unreached, fmt.Sprintf("%s:%d: %s (%d lines)", filepath.Base(start.Filename), start.Line, key, end.Line-start.Line+1))
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("unreached production declaration %s; delete it with its tests, give it a caller, or allowlist it with a reason", u)
	}
	for key, reason := range reachAllowlist {
		if reason == "" {
			t.Errorf("reachAllowlist entry %s has no reason", key)
		}
		if !used[key] {
			t.Errorf("reachAllowlist entry %s names no unreached declaration; drop it", key)
		}
	}
}

// allowlisted returns the first of keys that reachAllowlist names, or "".
func allowlisted(keys []string) string {
	for _, k := range keys {
		if _, ok := reachAllowlist[k]; ok {
			return k
		}
	}
	return ""
}

// declStart is where a declaration's lines begin: its doc comment when
// it has one.
func declStart(doc *ast.CommentGroup, n ast.Node) token.Pos {
	if doc != nil {
		return doc.Pos()
	}
	return n.Pos()
}

// receiverTypeName returns the named type a method receiver belongs to.
func receiverTypeName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// perfbenchRefs parses the non-test files of the perfbench/ module (a
// separate module, so Load does not see it) and reports every module
// identifier they name as a root, plus every selector name as a called
// method name.
func perfbenchRefs(t *testing.T, pkgs []*Package, reach func(types.Object), called map[string]bool) {
	t.Helper()
	byPath := map[string]*types.Package{}
	for _, pkg := range pkgs {
		byPath[pkg.ImportPath] = pkg.Types
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("../../perfbench", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		imports := map[string]*types.Package{}
		for _, imp := range f.Imports {
			p := byPath[strings.Trim(imp.Path.Value, `"`)]
			if p == nil {
				continue
			}
			name := p.Name()
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			called[sel.Sel.Name] = true
			if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != nil {
				if obj := imports[x.Name].Scope().Lookup(sel.Sel.Name); obj != nil {
					reach(obj)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatalf("parsing perfbench: %v", err)
	}
}
