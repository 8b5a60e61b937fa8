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
	Path string
	Fset *token.FileSet
	// Files are the package's non-test files, type-checked. TestFiles
	// are its directory's _test.go files, parsed for their comments
	// only: the contracts cover production code, but a bare annotation
	// is a finding wherever it is written.
	Files     []*ast.File
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info

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
// It is the one package loader: cmd/ealb-vet, the analysistest-style
// fixture tests and the module-wide reachability test
// (TestNoUnreachableCode) all load through it.
//
// Files are named in Fset relative to ModuleRoot, so every position a
// finding or a fact witness prints is module-relative and the output
// does not depend on where the module is checked out.
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
	stdPkg map[string]*types.Package // standard-library imports so far
	loaded map[string]*Package       // module and overlay packages, by import path
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
		stdPkg:     map[string]*types.Package{},
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
	dir := l.dirFor(path)
	if dir == "" {
		if pkg, ok := l.stdPkg[path]; ok {
			return pkg, nil
		}
		pkg, err := l.std.Import(path)
		if err != nil {
			return nil, err
		}
		l.stdPkg[path] = pkg
		return pkg, nil
	}
	pkg, err := l.Load(path, dir)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// FactsFor is the loader's FactSource: facts for every module-internal
// package it has loaded, nil for everything else (standard library,
// packages not yet reached). Safe to call with any path.
func (l *Loader) FactsFor(path string) *PackageFacts {
	if p, ok := l.loaded[path]; ok {
		return p.Facts
	}
	return nil
}

// parseDir parses the directory's Go files: the non-test ones for
// type-checking, the _test.go ones for their comments.
func (l *Loader) parseDir(dir string) (files, testFiles []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		if rel, err := filepath.Rel(l.ModuleRoot, path); err == nil {
			path = rel
		}
		f, err := parser.ParseFile(l.Fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(name, "_test.go") {
			testFiles = append(testFiles, f)
		} else {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return files, testFiles, nil
}

// Load type-checks the package in dir under the given import path,
// with the full type information and fact tables the analyzers need.
// Type-checking imports dependencies first (through Import, hence
// recursively through Load for module-internal ones), so by the time
// BuildFacts runs here every dependency's fact table is already in
// l.loaded — the import DAG is the evaluation order.
func (l *Loader) Load(path, dir string) (*Package, error) {
	// Idempotent: re-checking a path already loaded (as an earlier
	// package's dependency) would mint a second *types.Package identity
	// for it, and mixing the two across an import graph breaks
	// type-checking of every later importer.
	if p, ok := l.loaded[path]; ok {
		return p, nil
	}
	files, testFiles, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{
		Path: path, Fset: l.Fset, Files: files, TestFiles: testFiles, Types: pkg, Info: info,
		Facts: BuildFacts(path, l.Fset, files, pkg, info, l.FactsFor), ImportFacts: l.FactsFor,
	}
	l.loaded[path] = p
	return p, nil
}

// LoadModule loads every package directory under ModuleRoot, nested
// modules such as perfbench/ included, in directory walk order. It
// skips testdata (fixture findings are intentional), bin, and dot- and
// underscore-prefixed directories, as the go command does.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != l.ModuleRoot && (name == "testdata" || name == "bin" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			if dir := filepath.Dir(path); !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.Load(path, dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
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
			TestFiles:   pkg.TestFiles,
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
