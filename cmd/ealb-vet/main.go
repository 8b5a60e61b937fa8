// Command ealb-vet is the project's semantic vet tool: it runs the
// internal/lint analyzer suite (detrand, stablesort, tracenil,
// jsontag, hotpath, planpure, lockguard) over fully
// type-checked packages through the standard `go vet -vettool=`
// protocol:
//
//	go build -o bin/ealb-vet ./cmd/ealb-vet
//	go vet -vettool=$(pwd)/bin/ealb-vet ./...
//
// Invoked with package patterns instead of a vet config file, it
// re-executes `go vet -vettool=<itself>` with those patterns, so
// `bin/ealb-vet ./...` alone also works. `ealb-vet -list` prints each
// analyzer's name and contract — CI runs it first so the build log
// self-documents which rules gated the run. `ealb-vet -fix` applies the
// suggested fixes of mechanical findings in place; with -diff it
// previews them and exits 2 when the tree is not fix-clean (the CI
// dry-run).
//
// The vet protocol is implemented directly on the standard library
// (this module deliberately has no external dependencies): the tool
// answers the `-V=full` build-ID handshake and the `-flags` query, and
// for each package receives a JSON config file listing sources, the
// import map, and compiler export-data files, against which the package
// is parsed and type-checked before analysis.
//
// Facts. Each run of a module package also serializes that package's
// fact table (internal/lint/facts.go: Allocates, Mutates, Nondet, per
// declared function) to the vetx output file the go command supplies,
// and reads its dependencies' tables back through the config's
// PackageVetx map. That is how hotpath and planpure see through
// package boundaries: the driver schedules dependencies first, so by
// the time a package is analyzed every callee's facts are on disk.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"ealb/internal/lint"
)

// vetConfig mirrors cmd/go's per-package vet configuration (the JSON
// written next to each compiled package when a -vettool is set). Only
// the fields this tool consumes are declared.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

func main() {
	os.Exit(run())
}

func run() int {
	flags := flag.NewFlagSet("ealb-vet", flag.ExitOnError)
	var (
		versionFlag = flags.String("V", "", "print version and exit (vet protocol handshake)")
		flagsFlag   = flags.Bool("flags", false, "print analyzer flags as JSON and exit (vet protocol)")
		listFlag    = flags.Bool("list", false, "print each analyzer's name and doc string, then exit")
		jsonFlag    = flags.Bool("json", false, "emit diagnostics as JSON instead of plain text")
		fixFlag     = flags.Bool("fix", false, "apply suggested fixes to the module in place")
		diffFlag    = flags.Bool("diff", false, "with -fix: print the fixes as a diff instead of applying; exit 2 if any")
	)
	flags.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ealb-vet [-list] [-json] [-fix [-diff] [moduledir]] [packages | vet.cfg]\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(os.Args[1:]); err != nil {
		return 2
	}

	switch {
	case *versionFlag != "":
		return printVersion()
	case *flagsFlag:
		// The go command queries the tool's flags before first use; the
		// one flag it may forward is -json (from `go vet -json`).
		fmt.Println(`[{"Name":"json","Bool":true,"Usage":"emit JSON output"}]`)
		return 0
	case *listFlag:
		for _, a := range lint.Analyzers() {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return 0
	case *fixFlag:
		return runFix(flags.Args(), *diffFlag)
	}

	args := flags.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return unitcheck(args[0], *jsonFlag)
	}
	if len(args) == 0 {
		flags.Usage()
		return 2
	}
	return reexecGoVet(args)
}

// printVersion answers the -V=full handshake. cmd/go requires the line
// `<name> version <id...>` and uses it as the tool's build-cache key,
// so the id embeds a content hash of this executable: rebuilding the
// tool invalidates prior vet results.
func printVersion() int {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil)[:12])
			}
			f.Close()
		}
	}
	fmt.Printf("ealb-vet version ealb-%s\n", id)
	return 0
}

// reexecGoVet turns `ealb-vet ./...` into `go vet -vettool=<self> ./...`
// so the toolchain does package loading and export-data plumbing.
func reexecGoVet(patterns []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ealb-vet: %v\n", err)
		return 1
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		goTool = "go"
	}
	cmd := exec.Command(goTool, append([]string{"vet", "-vettool=" + self}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "ealb-vet: %v\n", err)
		return 1
	}
	return 0
}

// runFix analyzes every package of the enclosing module from source and
// applies (or, with -diff, previews) the suggested fixes attached to
// the findings. Exit status: 0 fix-clean or fixes applied, 1 error, 2
// diff mode found pending fixes — CI runs `ealb-vet -fix -diff .` as
// the fix-clean gate.
func runFix(args []string, diffOnly bool) int {
	start := "."
	if len(args) > 0 {
		start = args[0]
	}
	root, modPath, err := findModule(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ealb-vet: %v\n", err)
		return 1
	}
	loader := lint.NewLoader(modPath, root)
	var diags []lint.Diagnostic
	for _, dir := range packageDirs(root) {
		rel, _ := filepath.Rel(root, dir)
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := loader.Load(path, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ealb-vet: %v\n", err)
			return 1
		}
		ds, err := lint.Run(pkg, lint.Analyzers())
		if err != nil {
			fmt.Fprintf(os.Stderr, "ealb-vet: %v\n", err)
			return 1
		}
		diags = append(diags, ds...)
	}

	byFile := lint.CollectFixes(loader.Fset, diags)
	names := make([]string, 0, len(byFile))
	for name := range byFile {
		names = append(names, name)
	}
	sort.Strings(names)
	dirty := false
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ealb-vet: %v\n", err)
			return 1
		}
		fixed, err := lint.ApplyEdits(src, byFile[name])
		if err != nil {
			fmt.Fprintf(os.Stderr, "ealb-vet: %s: %v\n", name, err)
			return 1
		}
		if string(fixed) == string(src) {
			continue
		}
		dirty = true
		if diffOnly {
			fmt.Print(lint.Diff(name, src, fixed))
			continue
		}
		if err := os.WriteFile(name, fixed, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "ealb-vet: %v\n", err)
			return 1
		}
		fmt.Printf("ealb-vet: fixed %s\n", name)
	}
	if diffOnly && dirty {
		return 2
	}
	return 0
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module directive in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// packageDirs lists the module's package directories, skipping
// testdata (fixture findings are intentional), bin, and dot-dirs.
func packageDirs(root string) []string {
	var dirs []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "bin" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs
}

// unitcheck analyzes one package as described by a vet config file and
// reports diagnostics — the per-package half of the vet protocol.
func unitcheck(cfgPath string, asJSON bool) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ealb-vet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ealb-vet: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// Out-of-module packages (std, would-be dependencies) carry no ealb
	// facts: write the empty facts file the driver's bookkeeping expects
	// and stop.
	if !inModule(cfg.ImportPath) {
		if err := writeVetx(cfg.VetxOutput, nil); err != nil {
			fmt.Fprintf(os.Stderr, "ealb-vet: %v\n", err)
			return 1
		}
		return 0
	}

	// Module packages always get their facts computed and serialized —
	// even on VetxOnly runs, which exist precisely so that a dependency's
	// facts are on disk before its importers are analyzed.
	diags, facts, err := analyze(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx(cfg.VetxOutput, nil)
			return 0
		}
		fmt.Fprintf(os.Stderr, "ealb-vet: %v\n", err)
		return 1
	}
	if err := writeVetx(cfg.VetxOutput, facts); err != nil {
		fmt.Fprintf(os.Stderr, "ealb-vet: %v\n", err)
		return 1
	}
	if cfg.VetxOnly {
		return 0
	}
	if len(diags.byAnalyzer) == 0 {
		return 0
	}
	if asJSON {
		out := map[string]map[string][]jsonDiag{cfg.ImportPath: diags.byAnalyzer}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		enc.Encode(out)
		return 0
	}
	for _, line := range diags.plain {
		fmt.Fprintln(os.Stderr, line)
	}
	return 2 // the conventional "diagnostics found" vet exit status
}

// inModule reports whether the import path belongs to this module —
// the driver also schedules std/dependency packages, which this suite
// has no business analyzing.
func inModule(path string) bool {
	return path == "ealb" || strings.HasPrefix(path, "ealb/")
}

// writeVetx serializes a fact table to the driver-designated vetx file.
// A nil table writes an empty file — the "no facts" wire value
// DecodeFacts round-trips to nil.
func writeVetx(path string, facts *lint.PackageFacts) error {
	if path == "" {
		return nil
	}
	var data []byte
	if facts != nil {
		var err error
		if data, err = lint.EncodeFacts(facts); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o666)
}

// vetxFactSource reads dependency fact tables lazily from the files the
// go command lists in PackageVetx, caching per path. Unreadable or
// absent tables resolve to nil: the analyzers then simply know nothing
// about that package's functions, which is the safe direction (facts
// only ever add findings).
func vetxFactSource(cfg *vetConfig) lint.FactSource {
	cache := map[string]*lint.PackageFacts{}
	return func(path string) *lint.PackageFacts {
		if pf, ok := cache[path]; ok {
			return pf
		}
		var pf *lint.PackageFacts
		if file, ok := cfg.PackageVetx[path]; ok {
			if data, err := os.ReadFile(file); err == nil {
				pf, _ = lint.DecodeFacts(data)
			}
		}
		cache[path] = pf
		return pf
	}
}

type jsonDiag struct {
	Posn    string `json:"posn"`
	Message string `json:"message"`
}

type diagSet struct {
	plain      []string
	byAnalyzer map[string][]jsonDiag
}

// analyze parses and type-checks the configured package against its
// compiler export data, computes its fact table, and — unless this is a
// facts-only dependency run — applies the analyzer suite.
func analyze(cfg *vetConfig) (*diagSet, *lint.PackageFacts, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})

	conf := types.Config{Importer: imp, Sizes: types.SizesFor(cfg.Compiler, runtime.GOARCH)}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %w", cfg.ImportPath, err)
	}

	imports := vetxFactSource(cfg)
	facts := lint.BuildFacts(cfg.ImportPath, fset, files, pkg, info, imports)
	out := &diagSet{byAnalyzer: map[string][]jsonDiag{}}
	if cfg.VetxOnly {
		return out, facts, nil
	}

	diags, err := lint.Run(&lint.Package{
		Path: cfg.ImportPath, Fset: fset, Files: files, Types: pkg, Info: info,
		Facts: facts, ImportFacts: imports,
	}, lint.Analyzers())
	if err != nil {
		return nil, nil, err
	}
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		out.plain = append(out.plain, fmt.Sprintf("%s: %s", posn, d.Message))
		out.byAnalyzer[d.Analyzer] = append(out.byAnalyzer[d.Analyzer], jsonDiag{Posn: posn.String(), Message: d.Message})
	}
	return out, facts, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
