// Package hotcalldep is the dependency half of the hotcall fixture.
// Its fact table is computed when the loader imports it and consumed by
// the hotcall fixture package — the cross-package flow the facts engine
// exists for.
package hotcalldep

// Gather allocates directly: a map literal.
func Gather() map[string]int {
	return map[string]int{"a": 1}
}

// Wrap allocates only transitively, through Gather — the Allocates fact
// must propagate up the local call graph before export.
func Wrap() map[string]int {
	return Gather()
}

// Sum is allocation-free: hot callers may use it.
func Sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// HotButAllocs is itself a hot path. A hot caller in another package
// must NOT re-report it — this package's own hotpath run owns the
// finding (one defect, reported once, at the deepest annotated frame).
//
//ealb:hotpath
func HotButAllocs(n int) []int {
	return make([]int, n) // want `hot path calls make`
}

// Escaped allocates behind a justified annotation: the suppressed site
// contributes no Allocates fact, so callers see a clean function — the
// escape stops propagation instead of cascading up the call graph.
func Escaped() []int {
	//ealb:allow-alloc grows once at startup, amortized
	return make([]int, 8)
}
