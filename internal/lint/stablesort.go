package lint

import (
	"go/ast"
)

// StableSort bans the non-stable sorts module-wide. sort.Slice and
// sort.Sort order equal elements unpredictably (the pattern-defeating
// quicksort's tie-breaks depend on input layout), so any comparator
// that can see ties becomes a reproducibility hazard: two runs of the
// same seed can emit differently ordered output. The leader's shed
// order already learned this lesson (PR 3 uses sort.Stable with
// insertion-order ties); this analyzer makes the rule mechanical.
//
// Sites with provably tie-free comparators may keep the unstable sort
// by annotating //ealb:allow-nondet with the uniqueness argument —
// though sort.SliceStable costs the same at the fleet sizes involved,
// so conversion is almost always the better fix.
var StableSort = &Analyzer{
	Name: "stablesort",
	Doc: "forbid sort.Slice/sort.Sort (tie order is unspecified) in favor of " +
		"sort.SliceStable/sort.Stable, unless annotated //ealb:allow-nondet " +
		"with a tie-freedom argument",
	Run: runStableSort,
}

func runStableSort(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := qualifiedCall(pass.Info, call, "sort")
			if !ok {
				return true
			}
			var stable string
			switch name {
			case "Slice":
				stable = "sort.SliceStable"
			case "Sort":
				stable = "sort.Stable"
			default:
				return true
			}
			if !pass.suppressed(noteAllowNondet, call.Pos()) {
				// The stable variants take the identical arguments, so the
				// swap is a pure rename of the callee expression.
				fix := TextEdit{Pos: call.Fun.Pos(), End: call.Fun.End(), NewText: stable}
				pass.ReportFix(call.Pos(), fix, "sort.%s breaks comparator ties unpredictably; use %s, or annotate //ealb:allow-nondet with a tie-freedom argument", name, stable)
			}
			return true
		})
	}
	return nil
}
