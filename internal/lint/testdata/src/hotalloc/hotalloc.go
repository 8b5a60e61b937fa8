// Package fixture seeds direct hotpath violations inside an //ealb:hotpath
// function, alongside the legal shapes: persistent scratch reuse,
// caller-owned storage, directly returned error formatting, values that
// fit an interface without boxing, and an //ealb:allow-alloc escape.
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

	_, _, _, _, _, _, _ = m, lit, tmp, p, f, fresh, grown

	// Boxing: a non-constant, non-pointer value stored in an interface
	// is copied to the heap, wherever the conversion happens.
	var sink any
	sink = len(in)                          // want `boxes int into any`
	report(msg)                             // want `boxes string into any`
	_ = holder{v: s.scratch}                // want `boxes \[\]int into any`
	_ = []any{len(in)}                      // want `allocates a slice literal` `boxes int into any`
	var named fmt.Stringer = label(len(in)) // want `boxes fixture\.label into fmt\.Stringer`
	sink = any(len(in))                     // want `boxes int into any`
	// No boxing: pointers, maps and funcs fill the interface word,
	// constants are static data, and interfaces are already boxed.
	sink = s
	sink = m
	sink = 3
	sink = named
	report(s, m, f, nil)
	//ealb:allow-alloc the witness value is formatted only when tracing
	report(len(in))
	_ = sink
	if len(in) == 0 {
		return fmt.Errorf("empty input") // directly returned: cold failure path, exempt
	}
	return nil
}

// boxedResult returns a value through an interface result.
//
//ealb:hotpath
func (s *state) boxedResult() any {
	return len(s.scratch) // want `boxes int into any`
}

type holder struct{ v any }

type label int

func (l label) String() string { return "label" }

func report(...any) {}
