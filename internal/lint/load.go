package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Facts is this package's own fact table; ImportFacts resolves the
	// tables of its (transitive) module-internal dependencies. The
	// loader fills both; tests may substitute ImportFacts to simulate a
	// dependency without facts.
	Facts       *PackageFacts
	ImportFacts FactSource
}

// Loader type-checks packages from source without the go/packages
// machinery: module-internal import paths resolve to directories under
// the module root (plus explicit overlays for test fixtures), and
// standard-library imports fall back to the stdlib source importer.
// It serves the analysistest-style fixture tests, `ealb-vet -fix` and
// the module-wide reachability test (TestNoUnreachableCode); the `go vet
// -vettool` path uses compiler export data via the vet config instead
// (see cmd/ealb-vet).
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleRoot string
	// Overlay maps additional import paths to directories — how fixture
	// packages get analyzed under contract-relevant paths (e.g. a
	// testdata directory loaded as a pseudo-subpackage of
	// ealb/internal/cluster so detrand treats it as deterministic).
	Overlay map[string]string

	std    types.Importer
	pkgs   map[string]*types.Package
	facts  map[string]*PackageFacts
	loaded map[string]*Package
}

// NewLoader returns a loader rooted at the given module directory.
func NewLoader(modulePath, moduleRoot string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modulePath,
		ModuleRoot: moduleRoot,
		Overlay:    map[string]string{},
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*types.Package{},
		facts:      map[string]*PackageFacts{},
		loaded:     map[string]*Package{},
	}
}

// dirFor resolves an import path to a source directory, or "" when the
// path is outside the module and its overlays (i.e. standard library).
func (l *Loader) dirFor(path string) string {
	if dir, ok := l.Overlay[path]; ok {
		return dir
	}
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	if strings.HasPrefix(path, l.ModulePath+"/") {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/")))
	}
	return ""
}

// Import implements types.Importer over the module/overlay/std split.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := l.dirFor(path)
	if dir == "" {
		pkg, err := l.std.Import(path)
		if err != nil {
			return nil, err
		}
		l.pkgs[path] = pkg
		return pkg, nil
	}
	pkg, _, _, err := l.check(path, dir)
	if err != nil {
		return nil, err
	}
	return pkg, nil
}

// FactsFor is the loader's FactSource: facts for every module-internal
// package it has loaded, nil for everything else (standard library,
// packages not yet reached). Safe to call with any path.
func (l *Loader) FactsFor(path string) *PackageFacts {
	return l.facts[path]
}

// parseDir parses the directory's non-test Go files.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return files, nil
}

// check parses, type-checks, and fact-computes one directory as the
// given import path. Type-checking imports dependencies first (through
// Import, hence recursively through check for module-internal ones), so
// by the time BuildFacts runs here every dependency's fact table is
// already in l.facts — the import DAG is the evaluation order.
func (l *Loader) check(path, dir string) (*types.Package, []*ast.File, *types.Info, error) {
	// Idempotent: re-checking a path already loaded (as an earlier
	// package's dependency) would mint a second *types.Package identity
	// for it, and mixing the two across an import graph breaks
	// type-checking of every later importer.
	if p, ok := l.loaded[path]; ok {
		return p.Types, p.Files, p.Info, nil
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	l.pkgs[path] = pkg
	l.facts[path] = BuildFacts(path, l.Fset, files, pkg, info, l.FactsFor)
	l.loaded[path] = &Package{
		Path: path, Fset: l.Fset, Files: files, Types: pkg, Info: info,
		Facts: l.facts[path], ImportFacts: l.FactsFor,
	}
	return pkg, files, info, nil
}

// Load type-checks the package in dir under the given import path,
// with the full type information and fact tables the analyzers need.
func (l *Loader) Load(path, dir string) (*Package, error) {
	if _, _, _, err := l.check(path, dir); err != nil {
		return nil, err
	}
	return l.loaded[path], nil
}

// newInfo allocates the types.Info maps the analyzers consume.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Run applies the analyzers to a loaded package and returns the
// findings in file/position order.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			Pkg:         pkg.Types,
			Info:        pkg.Info,
			Facts:       pkg.Facts,
			ImportFacts: pkg.ImportFacts,
			Report:      func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
