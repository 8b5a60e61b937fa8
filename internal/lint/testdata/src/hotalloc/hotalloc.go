// Package fixture seeds direct hotpath violations inside an //ealb:hotpath
// function, alongside the legal shapes: persistent scratch reuse,
// caller-owned storage, directly returned error formatting, and an
// //ealb:allow-alloc escape.
package fixture

import "fmt"

type state struct {
	scratch []int
}

// cold allocates freely: it carries no //ealb:hotpath annotation.
func cold(n int) []int {
	out := make([]int, 0, n)
	return append(out, n)
}

// hot is the per-interval pass: it must not allocate.
//
//ealb:hotpath
func (s *state) hot(in []int) error {
	m := map[int]int{}                  // want `allocates a map literal`
	lit := []int{1}                     // want `allocates a slice literal`
	tmp := make([]int, 8)               // want `calls make`
	p := new(int)                       // want `calls new`
	f := func() {}                      // want `allocates a closure`
	msg := fmt.Sprintf("n=%d", len(in)) // want `formats with fmt\.Sprintf`

	var fresh []int
	fresh = append(fresh, 1) // want `appends to storage that is fresh on every call`
	s.scratch = append(s.scratch, 1)
	in = append(in, 2)

	//ealb:allow-alloc grows only on the rare resize path, never at steady state
	grown := make([]int, len(in)*2)

	use(m, lit, tmp, p, f, msg, fresh, grown)
	if len(in) == 0 {
		return fmt.Errorf("empty input") // directly returned: cold failure path, exempt
	}
	return nil
}

func use(...any) {}
