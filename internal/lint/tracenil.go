package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// tracePkgPath and traceIfaceName identify the tracer interface whose
// call sites must be nil-guarded.
const (
	tracePkgPath   = "ealb/internal/trace"
	traceIfaceName = "Tracer"
)

// TraceNil preserves the zero-overhead-when-nil tracer contract from
// PR 6: a nil trace.Tracer is the disabled state, so every Event/Phase
// call must be dominated by a nil check or it is a latent panic — and,
// just as bad for the contract, the code around it (clock reads, event
// construction) stops being gated on tracing being enabled.
//
// The analyzer accepts the two guard shapes the codebase uses:
//
//	if tr != nil { tr.Event(e) }            // enclosing guard
//	if t.tr == nil { return }; t.tr.Event(e) // early-return guard
//
// where the guarded expression is structurally identical to the call's
// receiver (an identifier or selector chain). The trace package itself
// is exempt: its combinators (Multi, WithCluster) establish non-nilness
// at construction time and are the mechanism other code relies on.
// Anything cleverer than the two shapes needs //ealb:tracer-checked
// with a reason.
var TraceNil = &Analyzer{
	Name: "tracenil",
	Doc: "require every call on a trace.Tracer-typed value to be dominated by " +
		"a nil check (enclosing `!= nil` guard or preceding `== nil` early " +
		"return), unless annotated //ealb:tracer-checked <reason>",
	Run: runTraceNil,
}

func runTraceNil(pass *Pass) error {
	if pass.Pkg.Path() == tracePkgPath {
		return nil
	}
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if call, ok := n.(*ast.CallExpr); ok {
				checkTraceCall(pass, call, stack)
			}
			stack = append(stack, n)
			return true
		})
	}
	return nil
}

func checkTraceCall(pass *Pass, call *ast.CallExpr, stack []ast.Node) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	if !isTracerType(selection.Recv()) {
		return
	}
	recv := sel.X
	if guardedByEnclosingIf(pass, recv, call, stack) || guardedByEarlyReturn(pass, recv, call, stack) {
		return
	}
	if pass.suppressed(noteTracerChecked, call.Pos()) {
		return
	}
	pass.Reportf(call.Pos(), "trace.Tracer call is not dominated by a nil check; guard with `if %s != nil` (or an early return) to preserve the zero-overhead-when-nil contract", exprString(recv))
}

// isTracerType reports whether t is the trace.Tracer interface.
func isTracerType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == traceIfaceName &&
		obj.Pkg() != nil && obj.Pkg().Path() == tracePkgPath
}

// guardedByEnclosingIf reports whether some enclosing if-statement's
// then-branch contains the call and its condition includes the conjunct
// `recv != nil`.
func guardedByEnclosingIf(pass *Pass, recv ast.Expr, call *ast.CallExpr, stack []ast.Node) bool {
	inner := ast.Node(call)
	for i := len(stack) - 1; i >= 0; i-- {
		ifStmt, ok := stack[i].(*ast.IfStmt)
		if !ok {
			inner = stack[i]
			continue
		}
		// The guard only dominates the then-branch; a call in the else
		// branch (or the condition itself) sees the opposite fact.
		if inner == ast.Node(ifStmt.Body) && condHasNotNil(ifStmt.Cond, recv) {
			return true
		}
		inner = stack[i]
	}
	return false
}

// condHasNotNil reports whether cond contains `recv != nil` as itself
// or as an &&-conjunct.
func condHasNotNil(cond ast.Expr, recv ast.Expr) bool {
	switch cond := cond.(type) {
	case *ast.ParenExpr:
		return condHasNotNil(cond.X, recv)
	case *ast.BinaryExpr:
		switch cond.Op {
		case token.LAND:
			return condHasNotNil(cond.X, recv) || condHasNotNil(cond.Y, recv)
		case token.NEQ:
			return nilComparison(cond, recv)
		}
	}
	return false
}

// guardedByEarlyReturn reports whether, in some enclosing block, a
// statement before the one containing the call is
// `if recv == nil { return/panic/continue/break }`.
func guardedByEarlyReturn(pass *Pass, recv ast.Expr, call *ast.CallExpr, stack []ast.Node) bool {
	inner := ast.Node(call)
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			inner = stack[i]
			continue
		}
		for _, stmt := range block.List {
			if ast.Node(stmt) == inner {
				break // statements after the call cannot dominate it
			}
			ifStmt, ok := stmt.(*ast.IfStmt)
			if !ok || ifStmt.Else != nil || len(ifStmt.Body.List) == 0 {
				continue
			}
			bin, ok := ifStmt.Cond.(*ast.BinaryExpr)
			if !ok || bin.Op != token.EQL || !nilComparison(bin, recv) {
				continue
			}
			if terminates(ifStmt.Body.List[len(ifStmt.Body.List)-1]) {
				return true
			}
		}
		inner = stack[i]
	}
	return false
}

// terminates reports whether stmt unconditionally leaves the enclosing
// block (return, branch, or panic).
func terminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// nilComparison reports whether the binary expression compares recv
// (structurally) against the nil literal.
func nilComparison(bin *ast.BinaryExpr, recv ast.Expr) bool {
	return (isNilIdent(bin.Y) && exprEqual(bin.X, recv)) ||
		(isNilIdent(bin.X) && exprEqual(bin.Y, recv))
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// exprEqual compares identifier/selector chains structurally: a == a,
// c.cfg.Tracer == c.cfg.Tracer.
func exprEqual(a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.Ident:
		bID, ok := b.(*ast.Ident)
		return ok && a.Name == bID.Name
	case *ast.SelectorExpr:
		bSel, ok := b.(*ast.SelectorExpr)
		return ok && a.Sel.Name == bSel.Sel.Name && exprEqual(a.X, bSel.X)
	case *ast.ParenExpr:
		return exprEqual(a.X, b)
	default:
		return false
	}
}

// exprString renders an identifier/selector chain for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	default:
		return "tracer"
	}
}
