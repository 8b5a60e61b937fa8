package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStableSortSuggestedFix runs the fix pipeline end to end on the
// stablesort fixture: collect the suggested edits, apply them to the
// source, and check the unstable calls became stable ones.
func TestStableSortSuggestedFix(t *testing.T) {
	pkg, diags := analyzeFixture(t, StableSort, "ealb/internal/lintfixture/stablesort", "stablesort")
	byFile := CollectFixes(pkg.Fset, diags)
	if len(byFile) == 0 {
		t.Fatal("stablesort findings carried no suggested fixes")
	}
	for name, edits := range byFile {
		src, err := os.ReadFile(filepath.Join("../..", name)) // names are module-relative
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := ApplyEdits(src, edits)
		if err != nil {
			t.Fatal(err)
		}
		// Flagged calls become stable; the //ealb:allow-nondet-escaped
		// sort.Slice carries no diagnostic, so no fix touches it.
		s := string(fixed)
		if strings.Contains(s, "sort.Sort(") {
			t.Errorf("%s: flagged sort.Sort survives the fix:\n%s", filepath.Base(name), s)
		}
		if got := strings.Count(s, "sort.Slice("); got != 1 {
			t.Errorf("%s: %d sort.Slice calls after fixing, want exactly the escaped one", filepath.Base(name), got)
		}
		if !strings.Contains(s, "sort.SliceStable(") {
			t.Errorf("%s: fixed source has no sort.SliceStable call", filepath.Base(name))
		}
	}
}

// TestApplyEditsRejectsOverlap pins the splice-safety contract.
func TestApplyEditsRejectsOverlap(t *testing.T) {
	src := []byte("abcdef")
	_, err := ApplyEdits(src, []fixEdit{{1, 4, []byte("X")}, {3, 5, []byte("Y")}})
	if err == nil {
		t.Error("overlapping edits applied without error")
	}
	out, err := ApplyEdits(src, []fixEdit{{1, 2, []byte("B")}, {4, 5, []byte("E")}})
	if err != nil || string(out) != "aBcdEf" {
		t.Errorf("ApplyEdits = %q, %v; want aBcdEf", out, err)
	}
}
