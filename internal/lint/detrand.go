package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// DetRand enforces the determinism contract in the simulation packages:
// all randomness must come from the seed-derived internal/xrand streams
// and all time from the simulated clock, and nothing may depend on Go's
// randomized map iteration order. A single stray time.Now or map range
// in a result path breaks the byte-identical serial/parallel guarantee
// the golden digests pin — and only breaks it visibly if a golden test
// happens to cover that path.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: "forbid math/rand, wall-clock reads (time.Now/Since/Until), and map " +
		"iteration in deterministic packages (cluster, farm, engine, workload, " +
		"serve) unless annotated //ealb:allow-nondet <reason>",
	Run: runDetRand,
}

func runDetRand(pass *Pass) error {
	if !isDeterministicPackage(pass.Pkg.Path()) {
		return nil
	}
	// detrand is the one analyzer guaranteed to run on every annotated
	// package, so it owns the reason-required check.
	pass.reportBareAnnotations()

	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				if !pass.suppressed(noteAllowNondet, imp.Pos()) {
					pass.Reportf(imp.Pos(), "deterministic package imports %s; derive randomness from the seeded internal/xrand streams", path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				name, ok := qualifiedCall(pass.Info, n, "time")
				if !ok {
					return true
				}
				switch name {
				case "Now", "Since", "Until":
					if !pass.suppressed(noteAllowNondet, n.Pos()) {
						pass.Reportf(n.Pos(), "deterministic package reads the wall clock via time.%s; use the simulated clock, or annotate //ealb:allow-nondet with a reason", name)
					}
				}
			case *ast.RangeStmt:
				t := pass.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					if !pass.suppressed(noteAllowNondet, n.Pos()) {
						pass.Reportf(n.Pos(), "deterministic package ranges over a map (iteration order is randomized); iterate a sorted key slice, or annotate //ealb:allow-nondet with a reason")
					}
				}
			}
			return true
		})
	}
	return nil
}
