// Package hotcall seeds transitive-allocation violations for the
// hotpath analyzer: every allocation lives one package over, visible
// only through the imported fact table of hotcalldep.
package hotcall

import "ealb/internal/lintfixture/hotcalldep"

var sink map[string]int

//ealb:hotpath
func step(xs []int) int {
	sink = hotcalldep.Gather() // want `hot path calls internal/lintfixture/hotcalldep\.Gather, which allocates \(allocates a map literal`
	sink = hotcalldep.Wrap()   // want `hot path calls internal/lintfixture/hotcalldep\.Wrap, which allocates \(calls internal/lintfixture/hotcalldep\.Gather`
	total := hotcalldep.Sum(xs)
	total += len(hotcalldep.HotButAllocs(3))
	total += len(hotcalldep.Escaped())
	//ealb:allow-alloc refill happens once per epoch, off the steady path
	m := hotcalldep.Gather()
	return total + len(m)
}

// cold is unannotated: hotpath checks //ealb:hotpath functions only.
func cold() map[string]int {
	return hotcalldep.Gather()
}
