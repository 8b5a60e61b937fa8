package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath guards the allocation-free interval path won in PR 3
// (allocs/op per interval 28,381 → 1,148 at 10⁴ servers). Functions
// annotated //ealb:hotpath — the leader's plan/apply pass, the churn
// step, the farm's per-interval phases — may neither use nor call what
// quietly reintroduces garbage.
//
// Directly, that is the allocation-prone constructs bodySites classifies
// (facts.go): map/slice literals, make/new, closures, fmt formatting,
// append onto storage that is fresh every call instead of a persistent
// scratch buffer, and boxing — a value that is neither constant nor
// pointer-shaped converted to an interface, in an assignment, argument,
// result, literal element, send or explicit conversion, which copies it
// to the heap. A formatting call whose result is returned
// directly or handed to panic is a cold failure path (the simulation is
// aborting) and is exempt structurally.
//
// Transitively, it is any statically resolved call to a function with
// the Allocates fact, even one in another package — without the fact, a
// hot function calling an allocating helper one package over passes vet
// and only a benchmark's allocs/op could catch it. Callees that are
// themselves //ealb:hotpath (the Hot fact) are skipped: their own
// package's run owns any finding inside them, so one defect reports
// once, at the deepest annotated frame. Standard-library callees carry
// no facts and are trusted; dynamic calls (interface methods, func
// values) are invisible to the engine — the tracer, the one hot
// interface, is banned from plan bodies by planpure.
//
// Either kind of finding is silenced by //ealb:allow-alloc <reason> on
// its line, stating why the allocation is acceptable (it happens only
// on rare events, or the value must escape into a result).
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "flag allocation-prone constructs (map/slice literals, make/new, " +
		"closures, fmt.Sprintf-family calls, append to per-call storage, boxing " +
		"into interfaces) inside " +
		"functions annotated //ealb:hotpath, and calls from them to functions " +
		"with the Allocates fact (through any chain of statically resolved " +
		"module calls), unless annotated //ealb:allow-alloc <reason>; " +
		"error-return formatting and //ealb:hotpath callees are exempt",
	Run: runHotPath,
}

func runHotPath(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !docHasMarker(fd.Doc, noteHotpath) {
				continue
			}
			bodySites(fd, pass.Files, pass.Info, pass.scratchIdx(), func(s site) {
				if (s.kind != siteAlloc && s.kind != siteCall) || pass.suppressed(noteAllowAlloc, s.pos) {
					return
				}
				if s.kind == siteAlloc {
					pass.Reportf(s.pos, "hot path %s; %s", s.what, s.hint)
					return
				}
				facts := pass.calleeFacts(s.edge.callee)
				if facts != nil && facts.Allocates != nil && !facts.Hot {
					pass.Reportf(s.pos,
						"hot path calls %s, which allocates (%s); make the callee allocation-free, annotate it //ealb:hotpath, or annotate this call //ealb:allow-alloc with a reason",
						calleeName(s.edge.callee), facts.Allocates.Via)
				}
			})
		}
	}
	return nil
}

// fmtFamily is the set of formatting calls that always allocate their
// result.
var fmtFamily = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

// panicArgument reports whether the call is a direct argument of a
// panic — evaluated only while unwinding the program.
func panicArgument(info *types.Info, call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	outer, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := outer.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	if _, builtin := info.Uses[id].(*types.Builtin); !builtin {
		return false
	}
	for _, arg := range outer.Args {
		if arg == ast.Expr(call) {
			return true
		}
	}
	return false
}

// returnedDirectly reports whether the call is an operand of the
// nearest enclosing return statement — i.e. its value is produced only
// to abort the caller.
func returnedDirectly(call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	ret, ok := stack[len(stack)-1].(*ast.ReturnStmt)
	if !ok {
		return false
	}
	for _, res := range ret.Results {
		if res == ast.Expr(call) {
			return true
		}
	}
	return false
}

// freshStorage reports whether the expression denotes backing storage
// created anew on every execution of the enclosing function — the
// append pattern that defeats scratch-buffer reuse.
func freshStorage(info *types.Info, files []*ast.File, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		// make(...) or a conversion like []T(nil) is fresh; any other
		// call is assumed to hand back reused storage (AppendX-style
		// helpers do).
		if id, ok := e.Fun.(*ast.Ident); ok {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "make" {
				return true
			}
		}
		if tv, isType := info.Types[e.Fun]; isType && tv.IsType() {
			return true
		}
		return false
	case *ast.Ident:
		if e.Name == "nil" {
			return true
		}
		return freshLocal(info, files, e)
	default:
		// Selectors, index expressions, slicings: persistent or
		// caller-owned storage.
		return false
	}
}

// freshLocal reports whether an identifier names a local variable whose
// declaration creates fresh storage (nil var, literal, or make) rather
// than borrowing a persistent buffer (x := s.buf[:0] and friends).
func freshLocal(info *types.Info, files []*ast.File, id *ast.Ident) bool {
	obj := info.ObjectOf(id)
	if obj == nil {
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
		return false // package-level or field: persistent
	}
	decl := declExprOf(info, files, obj)
	if decl == nil {
		// No declaring node found: a parameter or range variable —
		// caller-owned storage, conservatively treated as reused.
		return false
	}
	if decl == uninitVar {
		// var x []T with no initializer inside the function: a nil
		// slice, fresh on every call.
		return true
	}
	switch decl := decl.(type) {
	case *ast.Ident:
		return decl.Name == "nil"
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		return freshStorage(info, files, decl)
	}
	return false
}

// uninitVar is declExprOf's sentinel for a var declaration without an
// initializer.
var uninitVar ast.Expr = &ast.BadExpr{}

// declExprOf finds the initializer expression of a function-local
// variable, or the uninitVar sentinel for an uninitialized var
// declaration, or nil when no declaration is found (parameters, range
// variables).
func declExprOf(info *types.Info, files []*ast.File, obj types.Object) ast.Expr {
	var found ast.Expr
	for _, f := range files {
		if obj.Pos() < f.Pos() || obj.Pos() > f.End() {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || info.Defs[id] != obj {
						continue
					}
					if len(n.Rhs) == len(n.Lhs) {
						found = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						found = n.Rhs[0]
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if info.Defs[name] != obj {
						continue
					}
					if len(n.Values) > i {
						found = n.Values[i]
					} else if len(n.Values) == 0 {
						found = uninitVar
					}
				}
			}
			return true
		})
	}
	return found
}
