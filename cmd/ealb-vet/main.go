// Command ealb-vet is the project's semantic vet tool. It loads every
// package of the module enclosing dir from source — perfbench/, cmd/*
// and examples/* included — and runs the internal/lint analyzer suite
// (detrand, stablesort, hotpath, planpure, lockguard) over each:
//
//	go build -o bin/ealb-vet ./cmd/ealb-vet
//	./bin/ealb-vet -list   # each analyzer's name and contract
//	./bin/ealb-vet .       # report findings; exit 2 if there is any
//	./bin/ealb-vet -fix .  # apply the suggested fixes in place
//
// Findings print as file:line:col: message, with every path relative
// to the module root. Packages load in import order, so each package's
// facts (internal/lint/facts.go) are computed before its importers are
// analyzed: that is how hotpath and planpure see through package
// boundaries. `ealb-vet -fix . && git diff` previews what the fixes
// change.
//
// Exit status: 0 clean (or fixes applied), 1 the module failed to load,
// 2 findings or a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ealb/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("ealb-vet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "print each analyzer's name and doc string, then exit")
	fix := flags.Bool("fix", false, "apply the suggested fixes in place")
	flags.Usage = func() {
		fmt.Fprintln(stderr, "usage: ealb-vet [-list] [-fix] [dir]")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if flags.NArg() > 1 {
		flags.Usage()
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}
	dir := "."
	if flags.NArg() == 1 {
		dir = flags.Arg(0)
	}

	l, diags, err := analyze(dir)
	if err != nil {
		fmt.Fprintf(stderr, "ealb-vet: %v\n", err)
		return 1
	}
	if *fix {
		if err := applyFixes(l, diags, stdout); err != nil {
			fmt.Fprintf(stderr, "ealb-vet: %v\n", err)
			return 1
		}
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s: %s\n", l.Fset.Position(d.Pos), d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// analyze loads every package of the module enclosing dir and runs the
// suite over each, returning the findings in package walk order.
func analyze(dir string) (*lint.Loader, []lint.Diagnostic, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, nil, err
	}
	l := lint.NewLoader(modPath, root)
	pkgs, err := l.LoadModule()
	if err != nil {
		return nil, nil, err
	}
	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		ds, err := lint.Run(pkg, lint.Analyzers())
		if err != nil {
			return nil, nil, err
		}
		diags = append(diags, ds...)
	}
	return l, diags, nil
}

// applyFixes rewrites each file the findings' suggested fixes touch,
// in name order, and names each file it changed.
func applyFixes(l *lint.Loader, diags []lint.Diagnostic, stdout io.Writer) error {
	byFile := lint.CollectFixes(l.Fset, diags)
	names := make([]string, 0, len(byFile))
	for name := range byFile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(l.ModuleRoot, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fixed, err := lint.ApplyEdits(src, byFile[name])
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if string(fixed) == string(src) {
			continue
		}
		if err := os.WriteFile(path, fixed, 0o666); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "ealb-vet: fixed %s\n", name)
	}
	return nil
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
