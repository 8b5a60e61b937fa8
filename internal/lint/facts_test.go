package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadFactsFixture builds the fact table of one testdata/src package.
func loadFactsFixture(t *testing.T, importPath, fixture string) *PackageFacts {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader("ealb", root)
	l.Overlay[importPath] = dir
	pkg, err := l.Load(importPath, dir)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Facts == nil {
		t.Fatal("loader produced no facts")
	}
	return pkg.Facts
}

// TestFactsOfHotcallDep pins the behavior the hotcall fixture relies
// on: direct allocation with a module-relative witness, transitive
// propagation with a witness chain, escape-stops-propagation, the Hot
// marker, and the omission of clean functions from the table.
func TestFactsOfHotcallDep(t *testing.T) {
	pf := loadFactsFixture(t, "ealb/internal/lintfixture/hotcalldep", "hotcalldep")

	gather := pf.lookup("Gather")
	if gather == nil || gather.Allocates == nil {
		t.Fatalf("Gather should carry Allocates; got %+v", gather)
	}
	if !strings.Contains(gather.Allocates.Via, "map literal") {
		t.Errorf("Gather witness %q does not name the map literal", gather.Allocates.Via)
	}
	// Witness positions are module-relative, whatever the checkout path.
	if !strings.Contains(gather.Allocates.Via, " at internal/lint/testdata/src/hotcalldep/hotcalldep.go:") {
		t.Errorf("Gather witness %q does not give a module-relative position", gather.Allocates.Via)
	}

	wrap := pf.lookup("Wrap")
	if wrap == nil || wrap.Allocates == nil {
		t.Fatalf("Wrap should inherit Allocates transitively; got %+v", wrap)
	}
	if !strings.Contains(wrap.Allocates.Via, "calls internal/lintfixture/hotcalldep.Gather") {
		t.Errorf("Wrap witness %q does not chain through Gather", wrap.Allocates.Via)
	}

	if s := pf.lookup("Sum"); s != nil {
		t.Errorf("Sum is clean and should be omitted from the table; got %+v", s)
	}

	hot := pf.lookup("HotButAllocs")
	if hot == nil || !hot.Hot || hot.Allocates == nil {
		t.Fatalf("HotButAllocs should carry Hot and Allocates; got %+v", hot)
	}

	// The escape asymmetry: a suppressed allocation contributes no fact,
	// so the annotation does not cascade up the call graph.
	if esc := pf.lookup("Escaped"); esc != nil {
		t.Errorf("Escaped's allocation is annotated away and should export no facts; got %+v", esc)
	}
}
