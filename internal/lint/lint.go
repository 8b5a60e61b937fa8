// Package lint is the project's own static-analysis layer: seven
// analyzers that mechanically enforce the contracts the test suite only
// checks dynamically — the serial/parallel determinism guarantee pinned
// by the golden digests (detrand, stablesort), the PR 3
// allocation-free leader pass (hotpath), the PR 6
// zero-overhead-when-nil tracer (tracenil), the PR 5 digest-stability
// JSON rules (jsontag), the pure plan step (planpure), and the mutex
// discipline of the concurrent service state (lockguard). cmd/ealb-vet
// drives them through the standard `go vet -vettool=` protocol so every
// package is analyzed against fully type-checked sources in CI.
//
// The framework deliberately mirrors the shape of golang.org/x/tools'
// go/analysis (Analyzer, Pass, Diagnostic, per-package facts) but is
// built on the standard library alone: the module has no external
// dependencies, so the x/tools machinery is reimplemented in miniature
// rather than imported. Each analyzer is a pure function of one
// type-checked package plus the fact tables of its imports (facts.go):
// whether a function allocates, mutates observable state, or reads a
// nondeterministic source, computed once per package by one body
// walker (bodySites) that hotpath and planpure read bodies through too.
//
// Escape hatches are explicit source annotations, each requiring a
// reason:
//
//	//ealb:allow-nondet <reason>    suppresses detrand/stablesort on its
//	                                line or the line below
//	//ealb:allow-alloc <reason>     suppresses hotpath the same way
//	//ealb:tracer-checked <reason>  suppresses tracenil the same way
//	//ealb:allow-impure <reason>    suppresses planpure the same way
//	//ealb:allow-unguarded <reason> suppresses lockguard the same way
//
// Opt-in markers put a declaration under the stricter rules:
//
//	//ealb:hotpath           (func doc) opts the function into hotpath
//	//ealb:pure              (func doc) opts the function into planpure
//	//ealb:scratch           (field or type doc) storage a pure function
//	                         may mutate
//	//ealb:digest            (type doc) opts the struct into jsontag
//	//ealb:guarded-by(mu)    (field doc) opts the field into lockguard
//	//ealb:locked(mu)        (func doc) the caller holds mu on entry
//
// An annotation without a reason is itself a diagnostic: the escape
// hatch must document why the exception is sound.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one named analysis pass.
type Analyzer struct {
	// Name is the analyzer's identifier, as shown in diagnostics and
	// `ealb-vet -list`.
	Name string
	// Doc is the analyzer's one-paragraph documentation.
	Doc string
	// Run performs the analysis on one package, reporting findings via
	// pass.Reportf.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding, positioned in the analyzed package's
// file set. SuggestedFixes, when present, are mechanical text edits
// that resolve the finding; `ealb-vet -fix` applies them (fix.go).
type Diagnostic struct {
	Pos            token.Pos
	Analyzer       string
	Message        string
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is one self-contained resolution of a diagnostic: a
// set of non-overlapping text edits plus a human-readable description.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// A TextEdit replaces the source range [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string
}

// A Pass presents one type-checked package to an analyzer. The same
// package may be presented to many analyzers; annotation indexes are
// computed once and shared.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Facts holds this package's computed facts (facts.go); ImportFacts
	// resolves dependency facts. Either may be nil for analyzers that
	// never look.
	Facts       *PackageFacts
	ImportFacts FactSource

	// Report receives each diagnostic as it is found.
	Report func(Diagnostic)

	notes   *notes        // lazily built annotation index, shared across analyzers
	scratch *scratchIndex // lazily built //ealb:scratch index
}

// Reportf reports one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// ReportFix reports one finding carrying a suggested fix.
func (p *Pass) ReportFix(pos token.Pos, fix SuggestedFix, format string, args ...any) {
	p.Report(Diagnostic{
		Pos: pos, Analyzer: p.Analyzer.Name,
		Message:        fmt.Sprintf(format, args...),
		SuggestedFixes: []SuggestedFix{fix},
	})
}

// calleeFacts resolves a statically known callee to its FactSet — the
// local table for functions of this package, the imported facts for
// everything else — or nil when nothing is known.
func (p *Pass) calleeFacts(fn *types.Func) *FactSet {
	if fn == nil {
		return nil
	}
	if fn.Pkg() == p.Pkg {
		if p.Facts == nil {
			return nil
		}
		return p.Facts.lookup(objKey(fn))
	}
	if p.ImportFacts == nil || fn.Pkg() == nil {
		return nil
	}
	return p.ImportFacts(fn.Pkg().Path()).lookup(objKey(fn))
}

// scratchIdx builds (once) the package's //ealb:scratch index.
func (p *Pass) scratchIdx() *scratchIndex {
	if p.scratch == nil {
		p.scratch = buildScratchIndex(p.Files, p.Info)
	}
	return p.scratch
}

// isTestFile reports whether the file holding pos is a _test.go file.
// The contracts cover production code only: tests are free to use
// wall-clock time, unstable sorts, and allocation as they please.
func (p *Pass) isTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// sourceFiles returns the package's non-test files.
func (p *Pass) sourceFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		if !p.isTestFile(f) {
			out = append(out, f)
		}
	}
	return out
}

// Annotation markers. All project annotations share the "//ealb:"
// namespace so a grep finds every contract exception at once.
const (
	noteAllowNondet    = "ealb:allow-nondet"
	noteAllowAlloc     = "ealb:allow-alloc"
	noteTracerChecked  = "ealb:tracer-checked"
	noteAllowImpure    = "ealb:allow-impure"
	noteAllowUnguarded = "ealb:allow-unguarded"
	noteHotpath        = "ealb:hotpath"
	noteDigest         = "ealb:digest"
	notePure           = "ealb:pure"
	noteScratch        = "ealb:scratch"
	noteGuardedBy      = "ealb:guarded-by" // takes (mutexField)
	noteLocked         = "ealb:locked"     // takes (mutexField)
)

// lineKey identifies one source line across the package's files.
type lineKey struct {
	file string
	line int
}

// notes indexes every //ealb: annotation in the package.
type notes struct {
	// allow maps marker → set of annotated lines. A diagnostic on line
	// L is suppressed when the marker sits on L (trailing comment) or
	// L-1 (the line above).
	allow map[string]map[lineKey]bool
	// missingReason records suppression annotations written without a
	// reason; these are diagnostics in their own right.
	missingReason []token.Pos
}

// buildNotes indexes every suppression annotation in the files. It is
// shared by Pass.annotations and the facts builder (which runs before
// any Pass exists).
func buildNotes(fset *token.FileSet, files []*ast.File) *notes {
	n := &notes{allow: map[string]map[lineKey]bool{
		noteAllowNondet:    {},
		noteAllowAlloc:     {},
		noteTracerChecked:  {},
		noteAllowImpure:    {},
		noteAllowUnguarded: {},
	}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				for marker, set := range n.allow {
					if !strings.HasPrefix(text, marker) {
						continue
					}
					reason := strings.TrimSpace(strings.TrimPrefix(text, marker))
					if reason == "" {
						n.missingReason = append(n.missingReason, c.Pos())
					}
					pos := fset.Position(c.Pos())
					set[lineKey{pos.Filename, pos.Line}] = true
				}
			}
		}
	}
	return n
}

// covered reports whether a site at pos is covered by the given
// annotation marker — on the same line or the line above.
func (n *notes) covered(marker string, fset *token.FileSet, pos token.Pos) bool {
	set := n.allow[marker]
	at := fset.Position(pos)
	return set[lineKey{at.Filename, at.Line}] || set[lineKey{at.Filename, at.Line - 1}]
}

// annotations builds (once) and returns the package's annotation index.
func (p *Pass) annotations() *notes {
	if p.notes == nil {
		p.notes = buildNotes(p.Fset, p.Files)
	}
	return p.notes
}

// suppressed reports whether a diagnostic at pos is covered by the
// given annotation marker — on the same line or the line above.
func (p *Pass) suppressed(marker string, pos token.Pos) bool {
	return p.annotations().covered(marker, p.Fset, pos)
}

// reportBareAnnotations reports every suppression annotation written
// without a reason. Exactly one analyzer (detrand, which always runs on
// annotated packages) calls it so the finding is not duplicated.
func (p *Pass) reportBareAnnotations() {
	for _, pos := range p.annotations().missingReason {
		p.Reportf(pos, "ealb annotation must carry a reason explaining the exception")
	}
}

// docHasMarker reports whether a doc comment group contains the given
// marker as a standalone directive line.
func docHasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

// docMarkerArg extracts the parenthesized argument of an annotation of
// the form //ealb:marker(arg), searching the given comment groups (a
// field's Doc and trailing Comment, a function's Doc). Text after the
// closing parenthesis is free-form commentary.
func docMarkerArg(marker string, groups ...*ast.CommentGroup) (string, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, marker+"(")
			if !ok {
				continue
			}
			arg, _, ok := strings.Cut(rest, ")")
			if ok && arg != "" {
				return strings.TrimSpace(arg), true
			}
		}
	}
	return "", false
}

// deterministicPackages lists the import-path roots whose non-test code
// must be reproducible: a fixed seed must yield byte-identical results
// regardless of host, scheduling, or map hashing. detrand and
// stablesort enforce their rules inside these subtrees.
//
// serve is included deliberately: its NDJSON streams feed digests, so
// its few wall-clock sites (run timestamps, HTTP latency metrics) carry
// //ealb:allow-nondet annotations documenting why each is outside the
// simulated world.
var deterministicPackages = []string{
	"ealb/internal/cluster",
	"ealb/internal/farm",
	"ealb/internal/engine",
	"ealb/internal/workload",
	"ealb/internal/eventsim",
	"ealb/internal/serve",
}

// isDeterministicPackage reports whether the import path falls inside a
// deterministic subtree (exact match or a subpackage of one).
func isDeterministicPackage(path string) bool {
	for _, p := range deterministicPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// pkgNameOf resolves an identifier to the package it names (for
// qualified call detection like time.Now), or nil.
func pkgNameOf(info *types.Info, id *ast.Ident) *types.PkgName {
	if id == nil {
		return nil
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn
	}
	return nil
}

// qualifiedCall matches a call of the form pkg.Fn(...) where pkg's
// import path is pkgPath, returning the called name and true.
func qualifiedCall(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn := pkgNameOf(info, id)
	if pn == nil || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// Analyzers returns the full suite, in stable order: the four
// intraprocedural contract checkers first, then the two fact-driven
// interprocedural ones, then lockguard.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetRand,
		StableSort,
		TraceNil,
		JSONTag,
		HotPath,
		PlanPure,
		LockGuard,
	}
}
