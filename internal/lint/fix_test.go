package lint

import (
	"fmt"
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
		src, err := os.ReadFile(name)
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
		if d := Diff(name, src, fixed); !strings.Contains(d, "+") || !strings.Contains(d, "-") {
			t.Errorf("Diff produced no hunk for a real change:\n%s", d)
		}
	}
}

// TestJSONTagSuggestedFix checks both jsontag fix shapes: inserting a
// missing tag that pins the current wire name, and adding omitempty to
// an existing tag.
func TestJSONTagSuggestedFix(t *testing.T) {
	pkg, diags := analyzeFixture(t, JSONTag, "ealb/internal/lintfixture/jsontag", "jsontag")
	byFile := CollectFixes(pkg.Fset, diags)
	if len(byFile) == 0 {
		t.Fatal("jsontag findings carried no suggested fixes")
	}
	fixedAny := false
	for name, edits := range byFile {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := ApplyEdits(src, edits)
		if err != nil {
			t.Fatal(err)
		}
		fixedAny = true
		if string(fixed) == string(src) {
			t.Errorf("%s: fix applied no change", filepath.Base(name))
		}
	}
	if !fixedAny {
		t.Fatal("no file was fixed")
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

// TestDiffHunks pins Diff's hunk layout: edits far apart get a hunk
// each with three lines of context, edits whose context meets share
// one, and insertions or deletions shift the new side's line numbers.
func TestDiffHunks(t *testing.T) {
	lines := func(n int, edit func(i int, s string) []string) []byte {
		var b strings.Builder
		for i := 1; i <= n; i++ {
			for _, ln := range edit(i, fmt.Sprintf("line %d", i)) {
				b.WriteString(ln + "\n")
			}
		}
		return []byte(b.String())
	}
	old := lines(40, func(_ int, s string) []string { return []string{s} })
	for _, tc := range []struct {
		name string
		edit func(i int, s string) []string
		want string
	}{
		{"two far edits, two hunks", func(i int, s string) []string {
			if i == 5 || i == 35 {
				return []string{s + " fixed"}
			}
			return []string{s}
		}, "@@ -2,7 +2,7 @@\n line 2\n line 3\n line 4\n-line 5\n+line 5 fixed\n line 6\n line 7\n line 8\n" +
			"@@ -32,7 +32,7 @@\n line 32\n line 33\n line 34\n-line 35\n+line 35 fixed\n line 36\n line 37\n line 38\n"},
		{"context meets, one hunk", func(i int, s string) []string {
			if i == 5 || i == 11 {
				return []string{s + " fixed"}
			}
			return []string{s}
		}, "@@ -2,13 +2,13 @@\n line 2\n line 3\n line 4\n-line 5\n+line 5 fixed\n line 6\n line 7\n line 8\n" +
			" line 9\n line 10\n-line 11\n+line 11 fixed\n line 12\n line 13\n line 14\n"},
		{"insert and delete shift lines", func(i int, s string) []string {
			switch i {
			case 1:
				return []string{"new first", s}
			case 20:
				return nil
			case 40:
				return []string{s, "new last"}
			}
			return []string{s}
		}, "@@ -1,3 +1,4 @@\n+new first\n line 1\n line 2\n line 3\n" +
			"@@ -17,7 +18,6 @@\n line 17\n line 18\n line 19\n-line 20\n line 21\n line 22\n line 23\n" +
			"@@ -38,3 +38,4 @@\n line 38\n line 39\n line 40\n+new last\n"},
	} {
		head := "--- f.go\n+++ f.go (fixed)\n"
		if got := Diff("f.go", old, lines(40, tc.edit)); got != head+tc.want {
			t.Errorf("%s: Diff =\n%s\nwant\n%s", tc.name, got, head+tc.want)
		}
	}
}
