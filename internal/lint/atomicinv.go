package lint

// atomicinv enforces the two invariants atomically shared state (the obs
// kernel counters, their switch and the installed-recorder pointer)
// depends on:
//
//  1. Atomicity is all-or-nothing. A variable or struct field accessed
//     anywhere through sync/atomic — the function-style API
//     (atomic.AddInt64(&x, 1)) or the typed API (a value of type
//     atomic.Int64, atomic.Pointer[T], ...) — must never be read or
//     written as plain memory elsewhere: one racy plain access voids
//     every atomic one.
//  2. Published means frozen. A value stored into an atomic.Pointer or
//     atomic.Value snapshot is visible to concurrent readers the moment
//     Store returns; mutating it afterwards (within the publishing
//     function, which is where the analyzer can see it) is a data race
//     even though every pointer operation was atomic.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicInvAnalyzer checks that atomically accessed state is never
// touched non-atomically and that published snapshots are not mutated.
var AtomicInvAnalyzer = &Analyzer{
	Name: "atomicinv",
	Doc:  "fields accessed via sync/atomic must never be accessed non-atomically; published atomic.Pointer values must not be mutated",
	Run:  runAtomicInv,
}

func runAtomicInv(p *Pass) {
	prog := p.program()
	targets := prog.atomicTargets()
	for _, f := range p.Files {
		if isTestFile(p.Fset, f.Pos()) {
			continue
		}
		checkPlainAccess(p, f, targets)
		checkTypedMisuse(p, f)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkWriteAfterPublish(p, fd)
			}
		}
	}
}

// checkPlainAccess flags every use of a function-style-atomic object
// that is not itself the sanctioned &x argument of a sync/atomic call.
// The sanction is precise: only the operand of the & that is passed
// directly to the atomic call is exempt, so the second operand of
// atomic.AddInt64(&s.n, s.n) is still caught.
func checkPlainAccess(p *Pass, f *ast.File, targets map[types.Object][]token.Pos) {
	if len(targets) == 0 {
		return
	}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := p.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if _, isTarget := targets[obj]; !isTarget {
			return true
		}
		if sanctionedAtomicOperand(p.TypesInfo, stack) {
			return true
		}
		p.Reportf(id.Pos(), "non-atomic access to %s, which is accessed via sync/atomic elsewhere; use the atomic API for every access", id.Name)
		return true
	})
}

// sanctionedAtomicOperand reports whether the innermost node sits under
// a &x expression passed directly as an argument of a sync/atomic call.
func sanctionedAtomicOperand(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 1; i > 0; i-- {
		ue, ok := stack[i].(*ast.UnaryExpr)
		if !ok || ue.Op != token.AND {
			continue
		}
		call, ok := stack[i-1].(*ast.CallExpr)
		if !ok || !isAtomicPkgFunc(info, call) {
			return false
		}
		for _, arg := range call.Args {
			if arg == ue {
				return true
			}
		}
		return false
	}
	return false
}

// checkTypedMisuse flags value uses of sync/atomic-typed expressions
// (atomic.Int64, atomic.Pointer[T], ...) outside the two legitimate
// shapes: receiving a method call (x.Load()) and having their address
// taken (&x, to pass the atomic along). Anything else — assignment,
// comparison, function argument — copies or reads the raw struct,
// bypassing the atomic protocol.
func checkTypedMisuse(p *Pass, f *ast.File) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		switch expr.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		default:
			return true
		}
		tv, ok := p.TypesInfo.Types[expr]
		if !ok || !tv.IsValue() {
			return true
		}
		name, ok := syncAtomicTypeName(tv.Type)
		if !ok {
			return true
		}
		switch parent := enclosing(stack, 2).(type) {
		case *ast.SelectorExpr:
			return true // receiver of a method access (x.Load, x.Store, ...)
		case *ast.UnaryExpr:
			if parent.Op == token.AND {
				return true // address taken to pass the atomic along
			}
		case *ast.IndexExpr:
			if parent.X == expr {
				return true // slots[i] on the way to slots[i].Store(...)
			}
		}
		p.Reportf(expr.Pos(), "atomic.%s value used non-atomically; only method calls and address-of are allowed", name)
		return true
	})
}

// enclosing returns the nth enclosing node of the innermost one,
// skipping parentheses (n=2 is the immediate parent).
func enclosing(stack []ast.Node, n int) ast.Node {
	i := len(stack) - n
	for i >= 0 {
		if _, ok := stack[i].(*ast.ParenExpr); !ok {
			return stack[i]
		}
		i--
	}
	return nil
}

// syncAtomicTypeName returns the sync/atomic type name when t is (a
// pointer to) one of the package's named types.
func syncAtomicTypeName(t types.Type) (string, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync/atomic" {
		return "", false
	}
	return named.Obj().Name(), true
}

// publication is one X.Store(arg) of an atomic.Pointer / atomic.Value:
// the object whose memory became shared, and whether it was published
// through a pointer variable (writes *through* it are violations) or by
// address (&obj: every later write to obj is a violation).
type publication struct {
	pos    token.Pos
	obj    *types.Var
	typed  string // "Pointer" or "Value", for the message
	byAddr bool   // published as &obj rather than an already-pointer variable
}

// checkWriteAfterPublish scans one function for stores into
// atomic.Pointer/atomic.Value followed by mutation of the stored value.
func checkWriteAfterPublish(p *Pass, fd *ast.FuncDecl) {
	var pubs []publication
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Store" {
			return true
		}
		recvName, ok := syncAtomicTypeName(p.TypesInfo.Types[sel.X].Type)
		if !ok || (recvName != "Pointer" && recvName != "Value") {
			return true
		}
		switch arg := ast.Unparen(call.Args[0]).(type) {
		case *ast.Ident:
			if v, ok := p.TypesInfo.Uses[arg].(*types.Var); ok {
				if _, isPtr := v.Type().Underlying().(*types.Pointer); isPtr {
					pubs = append(pubs, publication{call.Pos(), v, recvName, false})
				}
			}
		case *ast.UnaryExpr:
			if arg.Op == token.AND {
				if id, ok := ast.Unparen(arg.X).(*ast.Ident); ok {
					if v, ok := p.TypesInfo.Uses[id].(*types.Var); ok {
						pubs = append(pubs, publication{call.Pos(), v, recvName, true})
					}
				}
			}
		}
		return true
	})
	if len(pubs) == 0 {
		return
	}
	report := func(pos token.Pos, pub publication) {
		p.Reportf(pos, "%s is mutated after being published via atomic.%s.Store at %s; copy before storing or treat the snapshot as immutable",
			pub.obj.Name(), pub.typed, p.Fset.Position(pub.pos))
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var lhss []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			lhss = n.Lhs
		case *ast.IncDecStmt:
			lhss = []ast.Expr{n.X}
		default:
			return true
		}
		for _, lhs := range lhss {
			root, deref := lhsRoot(p.TypesInfo, lhs)
			if root == nil {
				continue
			}
			for _, pub := range pubs {
				if root != pub.obj || lhs.Pos() <= pub.pos {
					continue
				}
				// Rebinding the pointer variable itself (v = other) is
				// fine; only writes through it touch published memory.
				// For &obj publications every write to obj does.
				if pub.byAddr || deref {
					report(lhs.Pos(), pub)
				}
			}
		}
		return true
	})
}

// lhsRoot resolves the variable at the base of an assignment target and
// whether the path to it dereferences a pointer (writes through v rather
// than to v). Selecting a field through a pointer-typed base counts as a
// dereference, as do *v and v[i] on pointer/slice bases.
func lhsRoot(info *types.Info, lhs ast.Expr) (*types.Var, bool) {
	deref := false
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			v, ok := info.Uses[e].(*types.Var)
			if !ok {
				return nil, false
			}
			return v, deref
		case *ast.StarExpr:
			deref = true
			lhs = e.X
		case *ast.IndexExpr:
			deref = true
			lhs = e.X
		case *ast.SelectorExpr:
			if t := info.Types[e.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Pointer); ok {
					deref = true
				}
			}
			lhs = e.X
		default:
			return nil, false
		}
	}
}
