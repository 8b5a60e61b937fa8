package lint

import (
	"go/ast"
	"go/types"
)

// LockGuard mechanizes the mutex comments that previously lived in
// prose ("mu guards runs, draining, idem"). A struct field annotated
// //ealb:guarded-by(mu) may only be accessed while the named sibling
// mutex is held: RLock (or better) for reads, Lock for writes. The
// serve and store packages carry the annotations; the analyzer itself
// is annotation-driven and package-agnostic.
//
// The walk is flow-sensitive but deliberately simple — a linear pass
// over each function body tracking a held set:
//
//   - s.mu.Lock() / RLock() raise the held level for the chain "s"+"mu"
//     (chains are compared textually, so s.tail.mu and s.mu stay
//     distinct); Unlock/RUnlock lower it.
//   - defer s.mu.Unlock() is the idiomatic pairing and keeps the lock
//     held for the remainder of the body (the unlock runs at return).
//   - branches fork the held set and merge at the join with the minimum
//     level per lock; a branch that terminates (return, break,
//     continue, both-arms-return if) does not constrain the join —
//     the early-unlock-and-return pattern stays clean.
//   - a function annotated //ealb:locked(mu) is a locked-section helper
//     (the *Locked naming convention): the receiver's mu is assumed
//     write-held on entry.
//   - accesses through a variable freshly constructed in the same
//     function (t := &tail{...} before publication) are exempt — no
//     other goroutine can hold a reference yet.
//
// Function literals inherit the held set at their creation site: the
// dominant cases here are synchronous callbacks and defer bodies.
// A goroutine closure that relies on the spawner's lock is a real bug
// this pass will miss; it is also one the race detector catches.
//
// The escape is //ealb:allow-unguarded <reason> on the access line,
// for single-word reads that are racy-but-benign by design.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc: "flag reads/writes of //ealb:guarded-by(mu) struct fields not " +
		"dominated by a matching mu.RLock/mu.Lock on the same chain; " +
		"defer-aware and branch-aware; //ealb:locked(mu) marks helpers whose " +
		"caller holds the lock; escape //ealb:allow-unguarded <reason>",
	Run: runLockGuard,
}

// Held levels: 0 = not held, 1 = read-locked, 2 = write-locked.
const (
	heldNone  = 0
	heldRead  = 1
	heldWrite = 2
)

// lockKey identifies one mutex instance as seen from a function body:
// the textual chain of its owner plus the mutex field name.
type lockKey struct {
	chain string // e.g. "s" or "s.tail"; "" means unresolvable
	mu    string
}

type lockState map[lockKey]int

func (ls lockState) clone() lockState {
	out := make(lockState, len(ls))
	for k, v := range ls {
		out[k] = v
	}
	return out
}

// mergeMin intersects two branch outcomes: a lock is held at the join
// only at the weakest level either path guarantees.
func mergeMin(a, b lockState) lockState {
	out := make(lockState)
	for k, v := range a {
		if w, ok := b[k]; ok {
			if w < v {
				v = w
			}
			if v > heldNone {
				out[k] = v
			}
		}
	}
	return out
}

func runLockGuard(pass *Pass) error {
	guarded := buildGuardIndex(pass.Files, pass.Info)
	if len(guarded) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lg := &lockChecker{pass: pass, guarded: guarded, fd: fd}
			held := make(lockState)
			if mu, ok := docMarkerArg(noteLocked, fd.Doc); ok {
				if recv := receiverChain(fd); recv != "" {
					held[lockKey{recv, mu}] = heldWrite
				}
			}
			lg.walkStmts(fd.Body.List, held)
		}
	}
	return nil
}

// buildGuardIndex maps each annotated struct field to the name of the
// sibling mutex that guards it.
func buildGuardIndex(files []*ast.File, info *types.Info) map[*types.Var]string {
	out := make(map[*types.Var]string)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu, ok := docMarkerArg(noteGuardedBy, field.Doc, field.Comment)
				if !ok {
					continue
				}
				for _, name := range field.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						out[v] = mu
					}
				}
			}
			return true
		})
	}
	return out
}

// receiverChain returns the chain string for the method receiver ("s"
// for func (s *Server)), or "" for functions and anonymous receivers.
func receiverChain(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

type lockChecker struct {
	pass    *Pass
	guarded map[*types.Var]string
	fd      *ast.FuncDecl
}

// chainString renders the owner chain of an expression textually, the
// identity lock tracking keys on. Unresolvable shapes (calls, channel
// receives) yield "".
func chainString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := chainString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return chainString(e.X)
	case *ast.StarExpr:
		return chainString(e.X)
	case *ast.UnaryExpr:
		return chainString(e.X)
	case *ast.IndexExpr:
		base := chainString(e.X)
		if base == "" {
			return ""
		}
		return base + "[]"
	default:
		return ""
	}
}

// rootIdent returns the leftmost identifier of a chain, for the
// fresh-local exemption.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// freshlyConstructed reports whether the identifier names a local
// variable initialized from a fresh composite literal or new() in this
// function — storage no other goroutine can reference yet.
func (lg *lockChecker) freshlyConstructed(id *ast.Ident) bool {
	obj := lg.pass.Info.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Parent() == nil || isPackageLevel(v) {
		return false
	}
	if lg.fd.Recv != nil {
		for _, f := range lg.fd.Recv.List {
			for _, n := range f.Names {
				if lg.pass.Info.Defs[n] == obj {
					return false
				}
			}
		}
	}
	decl := declExprOf(lg.pass.Info, lg.pass.Files, obj)
	switch d := decl.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, lit := d.X.(*ast.CompositeLit)
		return lit
	case *ast.CallExpr:
		if fn, ok := d.Fun.(*ast.Ident); ok {
			if _, builtin := lg.pass.Info.Uses[fn].(*types.Builtin); builtin && fn.Name == "new" {
				return true
			}
		}
	}
	return false
}

// lockOp recognizes a call of the shape <chain>.<mu>.Lock() on a sync
// mutex and returns the key and held-level delta it implies.
func (lg *lockChecker) lockOp(call *ast.CallExpr) (key lockKey, level int, isLock, ok bool) {
	sel, selOK := call.Fun.(*ast.SelectorExpr)
	if !selOK {
		return lockKey{}, 0, false, false
	}
	fn := staticCallee(lg.pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockKey{}, 0, false, false
	}
	muSel, muOK := sel.X.(*ast.SelectorExpr)
	if !muOK {
		return lockKey{}, 0, false, false
	}
	chain := chainString(muSel.X)
	if chain == "" {
		return lockKey{}, 0, false, false
	}
	key = lockKey{chain, muSel.Sel.Name}
	switch fn.Name() {
	case "Lock":
		return key, heldWrite, true, true
	case "RLock":
		return key, heldRead, true, true
	case "Unlock", "RUnlock":
		return key, heldNone, false, true
	}
	return lockKey{}, 0, false, false
}

// walkStmts processes a statement list sequentially, mutating held, and
// reports whether control cannot fall off the end.
func (lg *lockChecker) walkStmts(stmts []ast.Stmt, held lockState) bool {
	terminated := false
	for _, s := range stmts {
		if lg.walkStmt(s, held) {
			terminated = true
		}
	}
	return terminated
}

func (lg *lockChecker) walkStmt(s ast.Stmt, held lockState) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, level, isLock, isOp := lg.lockOp(call); isOp {
				if isLock {
					held[key] = level
				} else {
					delete(held, key)
				}
				return false
			}
			if isTerminalCall(lg.pass.Info, call) {
				lg.checkReads(s.X, held)
				return true
			}
		}
		lg.checkReads(s.X, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			lg.checkReads(rhs, held)
		}
		for _, lhs := range s.Lhs {
			lg.checkTarget(lhs, held)
		}
	case *ast.IncDecStmt:
		lg.checkTarget(s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() releases at return, not here: the lock stays
		// held for the rest of the body.
		if _, _, isLock, isOp := lg.lockOp(s.Call); isOp && !isLock {
			return false
		}
		for _, arg := range s.Call.Args {
			lg.checkReads(arg, held)
		}
		lg.checkReads(s.Call.Fun, held)
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			lg.checkReads(arg, held)
		}
		lg.checkReads(s.Call.Fun, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			lg.checkReads(r, held)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return lg.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			lg.walkStmt(s.Init, held)
		}
		lg.checkReads(s.Cond, held)
		thenHeld := held.clone()
		thenTerm := lg.walkStmts(s.Body.List, thenHeld)
		elseHeld := held.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = lg.walkStmt(s.Else, elseHeld)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replace(held, elseHeld)
		case elseTerm:
			replace(held, thenHeld)
		default:
			replace(held, mergeMin(thenHeld, elseHeld))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lg.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			lg.checkReads(s.Cond, held)
		}
		body := held.clone()
		lg.walkStmts(s.Body.List, body)
		if s.Post != nil {
			lg.walkStmt(s.Post, body)
		}
		replace(held, mergeMin(held, body))
	case *ast.RangeStmt:
		lg.checkReads(s.X, held)
		body := held.clone()
		lg.walkStmts(s.Body.List, body)
		replace(held, mergeMin(held, body))
	case *ast.SwitchStmt:
		if s.Init != nil {
			lg.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			lg.checkReads(s.Tag, held)
		}
		lg.walkClauses(s.Body.List, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			lg.walkStmt(s.Init, held)
		}
		lg.walkClauses(s.Body.List, held)
	case *ast.SelectStmt:
		lg.walkClauses(s.Body.List, held)
	case *ast.LabeledStmt:
		return lg.walkStmt(s.Stmt, held)
	case *ast.SendStmt:
		lg.checkReads(s.Chan, held)
		lg.checkReads(s.Value, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lg.checkReads(v, held)
					}
				}
			}
		}
	}
	return false
}

// walkClauses forks the held set per case and merges the survivors.
func (lg *lockChecker) walkClauses(clauses []ast.Stmt, held lockState) {
	var merged lockState
	any := false
	for _, c := range clauses {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				lg.checkReads(e, held)
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				lg.walkStmt(c.Comm, held.clone())
			}
			body = c.Body
		default:
			continue
		}
		branch := held.clone()
		if lg.walkStmts(body, branch) {
			continue
		}
		if !any {
			merged, any = branch, true
		} else {
			merged = mergeMin(merged, branch)
		}
	}
	if any {
		replace(held, mergeMin(held, merged))
	}
}

// replace overwrites held in place with the contents of next, keeping
// the caller's map identity.
func replace(held, next lockState) {
	for k := range held {
		delete(held, k)
	}
	for k, v := range next {
		held[k] = v
	}
}

// isTerminalCall reports whether the call never returns (panic, or any
// os.Exit-style sink is out of scope for this tree).
func isTerminalCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin && id.Name == "panic"
}

// checkTarget validates an assignment target: the outermost guarded
// field selector is a write; index expressions and the owner chain are
// reads.
func (lg *lockChecker) checkTarget(e ast.Expr, held lockState) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		lg.checkTarget(e.X, held)
	case *ast.StarExpr:
		lg.checkTarget(e.X, held)
	case *ast.IndexExpr:
		lg.checkReads(e.Index, held)
		lg.checkTarget(e.X, held)
	case *ast.SelectorExpr:
		lg.checkAccess(e, held, heldWrite)
		lg.checkReads(e.X, held)
	default:
		lg.checkReads(e, held)
	}
}

// checkReads walks an expression flagging guarded-field reads. Function
// literals inherit the current held set (see the analyzer doc).
func (lg *lockChecker) checkReads(e ast.Expr, held lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lg.walkStmts(n.Body.List, held.clone())
			return false
		case *ast.SelectorExpr:
			lg.checkAccess(n, held, heldRead)
		}
		return true
	})
}

// checkAccess reports a guarded-field access made without the required
// lock level.
func (lg *lockChecker) checkAccess(sel *ast.SelectorExpr, held lockState, need int) {
	selection, ok := lg.pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	mu, guarded := lg.guarded[field]
	if !guarded {
		return
	}
	chain := chainString(sel.X)
	if chain != "" {
		if got := held[lockKey{chain, mu}]; got >= need {
			return
		}
		if root := rootIdent(sel.X); root != nil && lg.freshlyConstructed(root) {
			return
		}
	}
	if lg.pass.suppressed(noteAllowUnguarded, sel.Pos()) {
		return
	}
	verb, op := "read of", mu+".RLock"
	if need == heldWrite {
		verb, op = "write to", mu+".Lock"
	}
	got := heldNone
	if chain != "" {
		got = held[lockKey{chain, mu}]
	}
	if need == heldWrite && got == heldRead {
		lg.pass.Reportf(sel.Sel.Pos(),
			"write to %s.%s while holding only %s.RLock; writes need %s (or annotate //ealb:allow-unguarded with a reason)",
			chain, sel.Sel.Name, mu, op)
		return
	}
	lg.pass.Reportf(sel.Sel.Pos(),
		"%s %s.%s is guarded by %s but the lock is not held here; take %s first, mark the helper //ealb:locked(%s), or annotate //ealb:allow-unguarded with a reason",
		verb, chainString(sel.X), sel.Sel.Name, mu, op, mu)
}
