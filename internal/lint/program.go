package lint

// The interprocedural layer: a Program holds every loaded package of one
// lint invocation and lazily builds the facts the whole-program analyzers
// share — the static call graph between module-local functions, a cached
// per-function hot-path summary (direct allocation/blocking violations
// plus outgoing call sites), the transitive closure of those summaries,
// and the set of objects accessed through the function-style sync/atomic
// API. Everything is computed at most once per invocation and reused by
// every analyzer over every package, which is what keeps the
// interprocedural checks as cheap as the per-file ones: the cost is one
// AST walk per function body, not one per (annotated root × callee).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotPathDirective marks a function as a hot-path kernel: attached to a
// function declaration's doc comment, it asserts the function (and
// everything it calls) executes without allocating, blocking, or
// dynamically dispatching. The hotpath analyzer enforces the assertion.
const hotPathDirective = "//kshape:hotpath"

// hotPathSafePkgs are the standard-library packages hot-path code may
// call into freely: pure float/integer math and lock-free atomics, none
// of which allocate or block.
var hotPathSafePkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// FuncInfo ties one function declaration to its package and its hot-path
// annotation state.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Pkg  *Package
	Hot  bool
}

// violation is one hot-path contract breach inside a function body.
type violation struct {
	pos token.Pos
	msg string
}

// callSite is one statically resolved call to a module-local function.
type callSite struct {
	pos    token.Pos
	callee *types.Func
}

// summary caches the hot-path facts of one function body: its direct
// violations and its outgoing module-local calls, both in source order.
type summary struct {
	direct []violation
	calls  []callSite
}

// Program is the shared interprocedural state of one lint invocation.
// Build it once with NewProgram over every loaded package and attach it
// to each Pass (Pass.Prog); a Pass without one lazily builds a
// single-package Program, which keeps the fixture harness self-contained.
type Program struct {
	fset *token.FileSet
	pkgs []*Package

	fns        map[*types.Func]*FuncInfo
	summaries  map[*types.Func]*summary
	transitive map[*types.Func][]violation

	// atomicOps maps field/variable objects accessed through the
	// function-style sync/atomic API (atomic.AddInt64(&x, ...)) to the
	// positions of those accesses; nil until first use.
	atomicOps map[types.Object][]token.Pos
}

// NewProgram indexes every function declaration of the given packages.
func NewProgram(fset *token.FileSet, pkgs []*Package) *Program {
	prog := &Program{
		fset:       fset,
		pkgs:       pkgs,
		fns:        map[*types.Func]*FuncInfo{},
		summaries:  map[*types.Func]*summary{},
		transitive: map[*types.Func][]violation{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.fns[obj] = &FuncInfo{Decl: fd, Pkg: pkg, Hot: hasHotPathDirective(fd.Doc)}
			}
		}
	}
	return prog
}

// program returns the pass's attached Program, lazily building a
// single-package one when the driver did not provide a whole-module view
// (fixtures, direct Pass construction).
func (p *Pass) program() *Program {
	if p.Prog == nil {
		p.Prog = NewProgram(p.Fset, []*Package{{
			ImportPath: p.PkgPath,
			Files:      p.Files,
			Types:      p.Pkg,
			Info:       p.TypesInfo,
		}})
	}
	return p.Prog
}

func hasHotPathDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == hotPathDirective {
			return true
		}
	}
	return false
}

// summary returns (building and caching on first use) the hot-path facts
// of fn's body.
func (prog *Program) summary(fn *types.Func) *summary {
	if s, ok := prog.summaries[fn]; ok {
		return s
	}
	s := &summary{}
	if fi := prog.fns[fn]; fi != nil {
		prog.summarize(fi, s)
	}
	prog.summaries[fn] = s
	return s
}

// hotViolations returns the transitive hot-path violations reachable
// from fn through un-annotated module-local callees: fn's own direct
// violations plus, recursively, those of every callee that does not
// carry //kshape:hotpath (annotated callees are trusted here — the
// analyzer checks them at their own declaration). Results are computed
// once per strongly connected component of that call graph, so every
// member of a recursive cycle shares one violation set: a root entering
// the cycle through any member sees every violation inside it.
func (prog *Program) hotViolations(fn *types.Func) []violation {
	if vs, ok := prog.transitive[fn]; ok {
		return vs
	}
	w := &sccWalk{prog: prog, index: map[*types.Func]int{}, low: map[*types.Func]int{}, onStack: map[*types.Func]bool{}}
	w.visit(fn)
	return prog.transitive[fn]
}

// untrustedCallee reports whether a call to fn propagates fn's
// violations to the caller: fn is module-local and not annotated.
func (prog *Program) untrustedCallee(fn *types.Func) bool {
	fi := prog.fns[fn]
	return fi != nil && !fi.Hot
}

// sccWalk is one run of Tarjan's strongly-connected-components algorithm
// over the un-annotated call graph. Components already finished by an
// earlier walk (present in Program.transitive) are leaves.
type sccWalk struct {
	prog    *Program
	index   map[*types.Func]int // discovery order
	low     map[*types.Func]int // smallest index reachable within the stack
	stack   []*types.Func
	onStack map[*types.Func]bool
}

func (w *sccWalk) visit(fn *types.Func) {
	prog := w.prog
	w.index[fn] = len(w.index)
	w.low[fn] = w.index[fn]
	w.stack = append(w.stack, fn)
	w.onStack[fn] = true
	for _, cs := range prog.summary(fn).calls {
		c := cs.callee
		if !prog.untrustedCallee(c) {
			continue
		}
		if _, done := prog.transitive[c]; done {
			continue
		}
		if _, seen := w.index[c]; !seen {
			w.visit(c)
			w.low[fn] = min(w.low[fn], w.low[c])
		} else if w.onStack[c] {
			w.low[fn] = min(w.low[fn], w.index[c])
		}
	}
	if w.low[fn] != w.index[fn] {
		return
	}
	// fn roots a component: its members sit on the stack above it, in
	// discovery order. The shared set is each member's direct violations
	// followed by those of its calls leaving the component. A member's
	// callee still on the stack is in the component (an edge to an
	// ancestor below fn would have lowered fn's low-link).
	i := len(w.stack) - 1
	for w.stack[i] != fn {
		i--
	}
	members := w.stack[i:]
	w.stack = w.stack[:i]
	var vs []violation
	for _, f := range members {
		sum := prog.summary(f)
		vs = append(vs, sum.direct...)
		for _, cs := range sum.calls {
			if prog.untrustedCallee(cs.callee) && !w.onStack[cs.callee] {
				vs = append(vs, prog.transitive[cs.callee]...)
			}
		}
	}
	for _, f := range members {
		w.onStack[f] = false
		prog.transitive[f] = vs
	}
}

// summarize walks one function body recording direct hot-path violations
// and statically resolved module-local call sites. The walk keeps an
// ancestor stack so context-sensitive rules (panic guards, sanctioned
// &x arguments, immediately invoked literals) see where a node sits.
func (prog *Program) summarize(fi *FuncInfo, s *summary) {
	info := fi.Pkg.Info
	var stack []ast.Node
	v := func(pos token.Pos, format string, args ...any) {
		s.direct = append(s.direct, violation{pos, fmt.Sprintf(format, args...)})
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		// Anything evaluated only to build a panic value runs once, on a
		// dying invariant-violation path; allocation there is irrelevant.
		if inPanicArg(info, stack) {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			prog.checkCall(fi, n, stack, v, s)
		case *ast.GoStmt:
			v(n.Pos(), "go statement spawns a goroutine (allocates and hands off to the scheduler)")
		case *ast.DeferStmt:
			v(n.Pos(), "defer in a hot-path function")
		case *ast.SendStmt:
			v(n.Pos(), "channel send may block")
		case *ast.SelectStmt:
			v(n.Pos(), "select statement may block")
		case *ast.UnaryExpr:
			switch n.Op {
			case token.ARROW:
				v(n.Pos(), "channel receive may block")
			case token.AND:
				checkAddressOf(info, n, stack, v)
			}
		case *ast.CompositeLit:
			checkCompositeLit(info, n, stack, v)
		case *ast.FuncLit:
			if !immediatelyInvoked(n, stack) {
				v(n.Pos(), "function literal allocates a closure; hoist it or inline the loop")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.Types[n.X].Type) && info.Types[n].Value == nil {
				v(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			checkAssign(info, n, v)
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && isMapType(info.Types[ix.X].Type) {
				v(n.Pos(), "map write in a hot-path function")
			}
		case *ast.ValueSpec:
			checkValueSpec(info, n, v)
		}
		return true
	})
}

// checkCall classifies one call expression: violating builtins,
// interface-boxing conversions, banned standard-library packages,
// indirect calls, and — the call-graph edges — statically resolved
// module-local callees.
func (prog *Program) checkCall(fi *FuncInfo, call *ast.CallExpr, stack []ast.Node,
	v func(pos token.Pos, format string, args ...any), s *summary) {
	info := fi.Pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				v(call.Pos(), "%s allocates", b.Name())
			case "append":
				v(call.Pos(), "append may grow its backing array (allocates); size the buffer up front")
			case "delete":
				v(call.Pos(), "map write (delete) in a hot-path function")
			case "close":
				v(call.Pos(), "channel close in a hot-path function")
			case "print", "println":
				v(call.Pos(), "%s writes to stderr", b.Name())
			case "panic":
				if !guarded(stack) {
					v(call.Pos(), "unguarded panic; invariant panics must sit behind a guard condition")
				}
			}
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		checkConversion(info, call, tv.Type, v)
		return
	}
	var callee *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = info.Uses[fun.Sel].(*types.Func)
	case *ast.FuncLit:
		// An invoked literal is statically resolved and its body is part
		// of this function's walk; the literal rule decides whether the
		// closure itself is a violation.
		return
	}
	if callee == nil {
		v(call.Pos(), "indirect call through a function value; hot-path calls must resolve statically")
		return
	}
	if sig, ok := callee.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
			v(call.Pos(), "dynamic dispatch through interface method %s", callee.Name())
			return
		}
		checkCallArgs(info, call, sig, v)
	}
	if _, local := prog.fns[callee]; local {
		s.calls = append(s.calls, callSite{call.Pos(), callee})
		return
	}
	pkg := callee.Pkg()
	if pkg == nil {
		return // error.Error and friends are caught by the interface-receiver rule
	}
	switch path := pkg.Path(); {
	case path == "fmt":
		v(call.Pos(), "fmt.%s formats and allocates", callee.Name())
	case path == "sync":
		v(call.Pos(), "sync.%s: mutex/pool/once operations block or allocate; hot paths must stay lock-free", calleeOwner(callee))
	case hotPathSafePkgs[path]:
		// math, math/bits, sync/atomic: pure or lock-free.
	default:
		v(call.Pos(), "call into package %s, which is not on the hot-path allowlist (math, math/bits, sync/atomic)", path)
	}
}

// calleeOwner names a method as Type.Method (Mutex.Lock) and a
// package-level function by its bare name.
func calleeOwner(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// checkConversion flags the converting calls that allocate: boxing a
// concrete value into an interface and string<->slice copies.
func checkConversion(info *types.Info, call *ast.CallExpr, dst types.Type,
	v func(pos token.Pos, format string, args ...any)) {
	if len(call.Args) != 1 {
		return
	}
	src := info.Types[call.Args[0]]
	if src.Type == nil {
		return
	}
	switch {
	case types.IsInterface(dst.Underlying()) && !types.IsInterface(src.Type.Underlying()) && !src.IsNil():
		v(call.Pos(), "conversion boxes %s into interface %s (allocates)", src.Type, dst)
	case isStringType(dst) && isSliceType(src.Type):
		v(call.Pos(), "slice-to-string conversion copies and allocates")
	case isSliceType(dst) && isStringType(src.Type):
		v(call.Pos(), "string-to-slice conversion copies and allocates")
	}
}

// checkCallArgs flags interface boxing of concrete arguments and
// variadic calls that materialize an argument slice.
func checkCallArgs(info *types.Info, call *ast.CallExpr, sig *types.Signature,
	v func(pos token.Pos, format string, args ...any)) {
	nparams := sig.Params().Len()
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= nparams {
		v(call.Pos(), "variadic call materializes its argument slice (allocates)")
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= nparams-1:
			if sl, ok := sig.Params().At(nparams - 1).Type().(*types.Slice); ok && !call.Ellipsis.IsValid() {
				pt = sl.Elem()
			}
		case i < nparams:
			pt = sig.Params().At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.Types[arg]
		if at.Type != nil && !types.IsInterface(at.Type.Underlying()) && !at.IsNil() {
			v(arg.Pos(), "argument boxes %s into interface %s (allocates)", at.Type, pt)
		}
	}
}

// checkAssign flags map writes, string +=, and interface boxing through
// assignment to an interface-typed location.
func checkAssign(info *types.Info, n *ast.AssignStmt, v func(pos token.Pos, format string, args ...any)) {
	for _, lhs := range n.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapType(info.Types[ix.X].Type) {
			v(lhs.Pos(), "map write in a hot-path function")
		}
	}
	if n.Tok == token.ADD_ASSIGN && isStringType(info.Types[n.Lhs[0]].Type) {
		v(n.Pos(), "string concatenation allocates")
	}
	if n.Tok != token.ASSIGN || len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		lt := info.Types[lhs]
		rt := info.Types[n.Rhs[i]]
		if lt.Type == nil || rt.Type == nil {
			continue // the blank identifier has no recorded type
		}
		if types.IsInterface(lt.Type.Underlying()) && !types.IsInterface(rt.Type.Underlying()) && !rt.IsNil() {
			v(n.Rhs[i].Pos(), "assignment boxes %s into interface %s (allocates)", rt.Type, lt.Type)
		}
	}
}

// checkValueSpec flags `var x SomeInterface = concrete` declarations.
func checkValueSpec(info *types.Info, spec *ast.ValueSpec, v func(pos token.Pos, format string, args ...any)) {
	if spec.Type == nil {
		return
	}
	dt := info.Types[spec.Type]
	if dt.Type == nil || !types.IsInterface(dt.Type.Underlying()) {
		return
	}
	for _, val := range spec.Values {
		rt := info.Types[val]
		if rt.Type != nil && !types.IsInterface(rt.Type.Underlying()) && !rt.IsNil() {
			v(val.Pos(), "declaration boxes %s into interface %s (allocates)", rt.Type, dt.Type)
		}
	}
}

// checkAddressOf applies the conservative escape heuristic: taking the
// address of a function-local variable is flagged unless the pointer
// goes straight into a sync/atomic call (which never retains it).
func checkAddressOf(info *types.Info, n *ast.UnaryExpr, stack []ast.Node,
	v func(pos token.Pos, format string, args ...any)) {
	id, ok := ast.Unparen(n.X).(*ast.Ident)
	if !ok {
		return
	}
	obj, ok := info.Uses[id].(*types.Var)
	if !ok || obj.IsField() || obj.Pkg() == nil || obj.Parent() == obj.Pkg().Scope() {
		return // fields and package-level variables do not stack-escape
	}
	if len(stack) >= 2 {
		if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && isSyncAtomicCall(info, call) {
			return
		}
	}
	v(n.Pos(), "address of local %s may force a heap escape", id.Name)
}

// checkCompositeLit flags slice and map literals (heap-backed); struct
// and array literals are plain stack values. A literal under & is left
// to the address-of rule's message.
func checkCompositeLit(info *types.Info, n *ast.CompositeLit, stack []ast.Node,
	v func(pos token.Pos, format string, args ...any)) {
	t := info.Types[n].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		v(n.Pos(), "slice literal allocates")
	case *types.Map:
		v(n.Pos(), "map literal allocates")
	case *types.Struct, *types.Array:
		if len(stack) >= 2 {
			if ue, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && ue.Op == token.AND {
				v(ue.Pos(), "&%s literal allocates", t)
			}
		}
	}
}

// immediatelyInvoked reports whether the literal is the callee of its
// parent call (func(){...}() does not escape and usually inlines).
func immediatelyInvoked(lit *ast.FuncLit, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	return ok && call.Fun == lit
}

// inPanicArg reports whether the innermost node sits inside the argument
// of a panic call (excluding the call itself).
func inPanicArg(info *types.Info, stack []ast.Node) bool {
	for _, a := range stack[:len(stack)-1] {
		if call, ok := a.(*ast.CallExpr); ok && isBuiltinCall(info, call, "panic") {
			return true
		}
	}
	return false
}

// guarded reports whether any ancestor is a conditional construct — the
// shape of an invariant guard (`if bad { panic(...) }`).
func guarded(stack []ast.Node) bool {
	for _, n := range stack {
		switch n.(type) {
		case *ast.IfStmt, *ast.CaseClause, *ast.CommClause:
			return true
		}
	}
	return false
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isSyncAtomicCall reports whether the call statically resolves into
// package sync/atomic (functions or methods).
func isSyncAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// atomicTargets returns (building on first use) the program-wide set of
// variables and struct fields accessed through the function-style
// sync/atomic API — the objects whose every other access the atomicinv
// analyzer requires to be atomic too.
func (prog *Program) atomicTargets() map[types.Object][]token.Pos {
	if prog.atomicOps != nil {
		return prog.atomicOps
	}
	prog.atomicOps = map[types.Object][]token.Pos{}
	for _, pkg := range prog.pkgs {
		for _, f := range pkg.Files {
			if isTestFile(prog.fset, f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isAtomicPkgFunc(pkg.Info, call) {
					return true
				}
				for _, arg := range call.Args {
					ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || ue.Op != token.AND {
						continue
					}
					if obj := referencedVar(pkg.Info, ue.X); obj != nil {
						prog.atomicOps[obj] = append(prog.atomicOps[obj], ue.X.Pos())
					}
				}
				return true
			})
		}
	}
	return prog.atomicOps
}

// isAtomicPkgFunc reports a call to a package-level sync/atomic function
// (AddInt64, LoadUint32, CompareAndSwapPointer, ...), as opposed to a
// method on one of its types.
func isAtomicPkgFunc(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// referencedVar resolves the variable or struct-field object an
// address-of operand names: a bare identifier, the field of a selector,
// or the base reached through index expressions (&arr[i].f).
func referencedVar(info *types.Info, expr ast.Expr) *types.Var {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if v, ok := info.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	case *ast.IndexExpr:
		return referencedVar(info, e.X)
	}
	return nil
}
