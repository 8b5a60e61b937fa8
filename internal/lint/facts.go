package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the interprocedural half of the framework: a per-object
// facts engine in the style of golang.org/x/tools' go/analysis facts,
// built (like the rest of the package) on the standard library alone.
//
// A fact is a property of a declared function that analyzers in *other*
// packages need: whether calling it can allocate, mutate observable
// state, or read a nondeterministic source. Facts are computed once per
// package — a fixed point over the package-local call graph, seeded
// with each body's direct behavior and with the already-computed facts
// of imported packages — and serialized into the vetx "facts file" slot
// of cmd/go's vet protocol (cmd/ealb-vet), or held in memory by the
// source Loader (fixture tests, `ealb-vet -fix`). Either way an
// analyzer sees the same view: Pass.calleeFacts resolves any statically
// known callee, local or imported, to its FactSet.
//
// The model is deliberately asymmetric about escape hatches: a site
// suppressed by its //ealb:allow-* annotation does NOT contribute to
// the enclosing function's facts. The annotation asserts the behavior
// is acceptable where it happens, so propagating it to every transitive
// caller would force annotation cascades up the call graph — exactly
// the noise the per-site escape exists to avoid. Facts therefore mean
// "has unsanctioned behavior reachable from here", which is the
// property callers need to gate on.
//
// Known limits, by construction: only statically resolved calls
// propagate (interface-method and func-value calls do not — the tracer,
// the one load-bearing interface on the hot path, is handled nominally
// by planpure/tracenil); standard-library callees have no facts and are
// assumed allocation-free, deterministic, and mutation-free (the
// contracts below only gate module code; std behavior is the compiler's
// and runtime's problem).

// FactsVersion is the serialization format tag; DecodeFacts rejects
// anything else so a stale vetx file from an older tool build cannot be
// misread silently.
const FactsVersion = "ealb-facts/1"

// FactInfo is one positive fact with a human-readable witness: the
// chain of calls from the fact's owner down to a concrete site.
type FactInfo struct {
	Via string `json:"via"`
}

// FactSet is everything the engine knows about one declared function.
type FactSet struct {
	// Allocates: the function (or a statically known callee, transitively)
	// contains an unsanctioned allocation-prone construct — the hotpath
	// vocabulary: map/slice literals, make/new, closures, fmt formatting,
	// append to fresh storage.
	Allocates *FactInfo `json:"allocates,omitempty"`
	// Mutates: the function assigns through its receiver or package-level
	// state (or calls something that does) outside //ealb:scratch-marked
	// storage. Mutation through non-receiver parameters is not recorded:
	// the caller passed the storage explicitly and can see the effect at
	// the call site.
	Mutates *FactInfo `json:"mutates,omitempty"`
	// Nondet: the function reads a nondeterministic source — wall clock,
	// math/rand, map iteration order — directly or transitively.
	Nondet *FactInfo `json:"nondet,omitempty"`
	// Hot marks //ealb:hotpath functions, so a caller's hotpath check can
	// leave findings inside the callee to the callee's own package run.
	Hot bool `json:"hot,omitempty"`
	// Pure marks //ealb:pure functions, the plan-phase purity contract.
	Pure bool `json:"pure,omitempty"`
}

// empty reports whether the set carries no information (and can be
// omitted from the serialized form entirely).
func (fs *FactSet) empty() bool {
	return fs.Allocates == nil && fs.Mutates == nil && fs.Nondet == nil && !fs.Hot && !fs.Pure
}

// PackageFacts is one package's exported facts, keyed by object: plain
// functions by name ("SortByDemand"), methods by receiver-qualified
// name ("(*Cluster).planMove").
type PackageFacts struct {
	Version string              `json:"version"`
	Path    string              `json:"path"`
	Funcs   map[string]*FactSet `json:"funcs,omitempty"`
}

// A FactSource resolves an import path to that package's facts, or nil
// when none are known (standard library, or a dependency analyzed by an
// older tool). Both drivers provide one: cmd/ealb-vet reads the vetx
// files cmd/go hands it, the Loader computes facts for every
// module-internal package it type-checks.
type FactSource func(path string) *PackageFacts

// objKey returns fn's key in its package's fact table.
func objKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		return "(" + types.TypeString(sig.Recv().Type(), types.RelativeTo(fn.Pkg())) + ")." + fn.Name()
	}
	return fn.Name()
}

// EncodeFacts serializes facts deterministically (encoding/json emits
// map keys in sorted order, so byte-identical inputs yield
// byte-identical vetx files — cmd/go caches vet results by content).
func EncodeFacts(pf *PackageFacts) ([]byte, error) {
	return json.Marshal(pf)
}

// DecodeFacts parses a facts file. Empty input decodes to nil — the
// facts file of an out-of-module package.
func DecodeFacts(data []byte) (*PackageFacts, error) {
	if len(data) == 0 {
		return nil, nil
	}
	var pf PackageFacts
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Errorf("lint: parsing facts: %w", err)
	}
	if pf.Version != FactsVersion {
		return nil, fmt.Errorf("lint: facts version %q, want %q", pf.Version, FactsVersion)
	}
	return &pf, nil
}

// lookup returns the facts for key, or nil.
func (pf *PackageFacts) lookup(key string) *FactSet {
	if pf == nil {
		return nil
	}
	return pf.Funcs[key]
}

// viaCap bounds witness-chain growth through deep call graphs.
const viaCap = 240

// composeVia prefixes a propagation step onto a callee's witness.
func composeVia(step, calleeVia string) string {
	via := step
	if calleeVia != "" {
		via += " → " + calleeVia
	}
	if len(via) > viaCap {
		via = via[:viaCap] + "…"
	}
	return via
}

// funcState is the builder's working record for one declared function.
type funcState struct {
	decl *ast.FuncDecl
	obj  *types.Func
	set  FactSet
	// calls are the statically resolved call edges out of the body.
	calls []callEdge
}

// callEdge is one statically resolved call site.
type callEdge struct {
	callee *types.Func
	pos    token.Pos
	// scratchRecv: the call's receiver chain passes //ealb:scratch-marked
	// storage, so any mutation the callee performs is confined to scratch.
	scratchRecv bool
}

// BuildFacts computes the package's exported facts: direct behavior per
// function body, then a fixed point propagating callee facts (local and
// imported) across the static call graph.
func BuildFacts(path string, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, imported FactSource) *PackageFacts {
	ns := buildNotes(fset, files)
	sx := buildScratchIndex(files, info)
	var fns []*funcState
	byObj := map[*types.Func]*funcState{}
	for _, f := range files {
		if isTestFilename(fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fs := &funcState{decl: fd, obj: obj}
			fs.set.Hot = docHasMarker(fd.Doc, noteHotpath)
			fs.set.Pure = docHasMarker(fd.Doc, notePure)
			scanDirect(fs, fset, files, info, ns, sx)
			fns = append(fns, fs)
			byObj[obj] = fs
		}
	}

	// Fixed point over the local call graph. Imported facts are already
	// final, so only local edges can keep the iteration going; with three
	// monotone bits per function it terminates quickly.
	factsOf := func(callee *types.Func) *FactSet {
		if local, ok := byObj[callee]; ok {
			return &local.set
		}
		if callee.Pkg() == nil || imported == nil {
			return nil
		}
		return imported(callee.Pkg().Path()).lookup(objKey(callee))
	}
	for changed := true; changed; {
		changed = false
		for _, fs := range fns {
			for _, e := range fs.calls {
				cf := factsOf(e.callee)
				if cf == nil {
					continue
				}
				name := calleeName(e.callee)
				if fs.set.Allocates == nil && cf.Allocates != nil && !ns.covered(noteAllowAlloc, fset, e.pos) {
					fs.set.Allocates = &FactInfo{Via: composeVia("calls "+name, cf.Allocates.Via)}
					changed = true
				}
				if fs.set.Nondet == nil && cf.Nondet != nil && !ns.covered(noteAllowNondet, fset, e.pos) {
					fs.set.Nondet = &FactInfo{Via: composeVia("calls "+name, cf.Nondet.Via)}
					changed = true
				}
				if fs.set.Mutates == nil && cf.Mutates != nil && !e.scratchRecv && !ns.covered(noteAllowImpure, fset, e.pos) {
					fs.set.Mutates = &FactInfo{Via: composeVia("calls "+name, cf.Mutates.Via)}
					changed = true
				}
			}
		}
	}

	pf := &PackageFacts{Version: FactsVersion, Path: path, Funcs: map[string]*FactSet{}}
	for _, fs := range fns {
		if !fs.set.empty() {
			set := fs.set // copy: the table owns its values
			pf.Funcs[objKey(fs.obj)] = &set
		}
	}
	return pf
}

// calleeName renders a callee for witness chains, package-qualified but
// without the module prefix noise.
func calleeName(fn *types.Func) string {
	name := fn.FullName()
	return strings.TrimPrefix(name, "ealb/")
}

// scanDirect records fn's own direct behavior: the first unsuppressed
// allocation, nondeterministic read and observable mutation, and every
// statically resolved call edge.
func scanDirect(fs *funcState, fset *token.FileSet, files []*ast.File, info *types.Info, ns *notes, sx *scratchIndex) {
	first := func(fact **FactInfo, marker string, s site) {
		if *fact == nil && !ns.covered(marker, fset, s.pos) {
			*fact = &FactInfo{Via: s.what + " at " + fset.Position(s.pos).String()}
		}
	}
	bodySites(fs.decl, files, info, sx, func(s site) {
		switch s.kind {
		case siteAlloc:
			first(&fs.set.Allocates, noteAllowAlloc, s)
		case siteNondet:
			first(&fs.set.Nondet, noteAllowNondet, s)
		case siteMutate:
			first(&fs.set.Mutates, noteAllowImpure, s)
		case siteCall:
			if s.edge.callee != nil {
				fs.calls = append(fs.calls, s.edge)
			}
		}
	})
}

// siteKind classifies one site of a function body.
type siteKind uint8

const (
	siteAlloc  siteKind = iota // an allocation-prone construct
	siteNondet                 // a read of a nondeterministic source
	siteMutate                 // a write through the receiver or package-level state
	siteCall                   // a call; edge.callee is nil when the call is dynamic
)

// site is one classified point of a function body.
type site struct {
	kind siteKind
	pos  token.Pos
	// what is the witness text: "allocates a map literal",
	// "assigns through receiver state (c.n)".
	what string
	// hint is an alloc site's remedy, for hotpath's diagnostic.
	hint string
	// call and edge describe a call site.
	call *ast.CallExpr
	edge callEdge
}

// bodySites walks fd's body once and yields every site in source order,
// suppressed or not: each consumer applies its own //ealb:allow-*
// marker. It is the package's one classifier of what allocates, what
// reads a nondeterministic source, what mutates caller-visible state,
// and what calls what; the facts engine, hotpath and planpure all read
// bodies through it.
func bodySites(fd *ast.FuncDecl, files []*ast.File, info *types.Info, sx *scratchIndex, visit func(site)) {
	aliases := buildAliases(fd, info, sx)
	recv := receiverObject(fd, info)
	alloc := func(pos token.Pos, what, hint string) {
		visit(site{kind: siteAlloc, pos: pos, what: what, hint: hint})
	}
	nondet := func(pos token.Pos, what string) {
		visit(site{kind: siteNondet, pos: pos, what: what})
	}
	write := func(pos token.Pos, e ast.Expr) {
		if localRebind(e, info) {
			return
		}
		ci := resolveChain(e, info, sx, aliases)
		if ci.scratch || ci.root == nil {
			return
		}
		if recv != nil && ci.root == recv {
			visit(site{kind: siteMutate, pos: pos, what: "assigns through receiver state (" + exprString(e) + ")"})
			return
		}
		if v, ok := ci.root.(*types.Var); ok && isPackageLevel(v) {
			visit(site{kind: siteMutate, pos: pos, what: "assigns package-level state (" + exprString(e) + ")"})
		}
	}
	classifyCall := func(call *ast.CallExpr, stack []ast.Node) {
		pos := call.Pos()
		if id, ok := call.Fun.(*ast.Ident); ok {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "make":
					alloc(pos, "calls make", "allocate once outside the interval loop and reuse")
				case "new":
					alloc(pos, "calls new", "allocate once outside the interval loop and reuse")
				case "append":
					if len(call.Args) > 0 && freshStorage(info, files, call.Args[0]) {
						alloc(pos, "appends to storage that is fresh on every call", "append into a persistent scratch slice instead")
					}
				}
				return
			}
		}
		// A formatting call returned directly or handed straight to panic
		// is the cold failure path: the caller is already aborting, so the
		// allocation never shows up in steady state.
		if name, ok := qualifiedCall(info, call, "fmt"); ok && fmtFamily[name] && !returnedDirectly(call, stack) && !panicArgument(info, call, stack) {
			alloc(pos, "formats with fmt."+name, "precompute, or annotate //ealb:allow-alloc with a reason")
		}
		if name, ok := qualifiedCall(info, call, "time"); ok {
			switch name {
			case "Now", "Since", "Until":
				nondet(pos, "reads the wall clock via time."+name)
			}
		}
		for _, randPkg := range []string{"math/rand", "math/rand/v2"} {
			if name, ok := qualifiedCall(info, call, randPkg); ok {
				nondet(pos, "draws from "+randPkg+"."+name)
			}
		}
		edge := callEdge{callee: staticCallee(info, call), pos: pos}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
				edge.scratchRecv = resolveChain(sel.X, info, sx, aliases).scratch
			}
		}
		visit(site{kind: siteCall, pos: pos, call: call, edge: edge})
	}

	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				alloc(n.Pos(), "allocates a map literal", "hoist it into persistent state")
			case *types.Slice:
				alloc(n.Pos(), "allocates a slice literal", "hoist it into a reused scratch buffer")
			}
		case *ast.FuncLit:
			alloc(n.Pos(), "allocates a closure", "hoist it or annotate //ealb:allow-alloc with why the event is rare")
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					nondet(n.Pos(), "ranges over a map")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(n.Pos(), lhs)
			}
		case *ast.IncDecStmt:
			write(n.Pos(), n.X)
		case *ast.CallExpr:
			classifyCall(n, stack)
		}
		stack = append(stack, n)
		return true
	})
}

// staticCallee resolves a call to the *types.Func it invokes, or nil for
// dynamic calls (interface methods, func values, conversions, builtins).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if selection, ok := info.Selections[fun]; ok {
			if selection.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := selection.Obj().(*types.Func)
			if fn != nil {
				// An interface method has no body to analyze; only concrete
				// methods carry facts.
				if types.IsInterface(selection.Recv()) {
					return nil
				}
			}
			return fn
		}
		// Package-qualified call: fmt.Sprintf, server.SortByDemand.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// receiverObject returns fd's named receiver, or nil. Receiver writes
// are the mutation the Mutates fact reports; parameters and results are
// the caller's own storage and are not tracked.
func receiverObject(fd *ast.FuncDecl, info *types.Info) types.Object {
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		return info.Defs[fd.Recv.List[0].Names[0]]
	}
	return nil
}

// isPackageLevel reports whether v is a package-scoped variable.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isTestFilename reports whether the file is a _test.go file.
func isTestFilename(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}
