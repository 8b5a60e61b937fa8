package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture tests mirror x/tools' analysistest: each testdata/src
// directory seeds violations, and trailing comments of the form
//
//	// want `regex` `regex`
//
// state the diagnostics expected on that line. The runner fails on any
// unmatched expectation and on any unexpected diagnostic, so fixtures
// pin both the positive and the negative behavior of every analyzer.

func TestDetRand(t *testing.T) {
	runFixture(t, DetRand, "ealb/internal/cluster/detrandfixture", "detrand")
}

func TestStableSort(t *testing.T) {
	runFixture(t, StableSort, "ealb/internal/lintfixture/stablesort", "stablesort")
}

// TestHotAlloc runs the hot-path analyzer over the direct allocation
// sites of the hotalloc fixture.
func TestHotAlloc(t *testing.T) {
	runFixture(t, HotPath, "ealb/internal/lintfixture/hotalloc", "hotalloc")
}

// TestHotCall runs the hot-path analyzer over the hotcall fixture, whose
// findings are transitive allocations seen through a dependency's
// imported facts.
func TestHotCall(t *testing.T) {
	runFixtureDeps(t, HotPath, "ealb/internal/lintfixture/hotcall", "hotcall", hotcallDeps)
}

// TestHotPath runs the hot-path analyzer over that dependency itself,
// which owns the finding inside its //ealb:hotpath function (hotcalldep).
func TestHotPath(t *testing.T) {
	runFixture(t, HotPath, "ealb/internal/lintfixture/hotcalldep", "hotcalldep")
}

func TestTraceNil(t *testing.T) {
	runFixture(t, TraceNil, "ealb/internal/lintfixture/tracenil", "tracenil")
}

func TestJSONTag(t *testing.T) {
	runFixture(t, JSONTag, "ealb/internal/lintfixture/jsontag", "jsontag")
}

func TestPlanPure(t *testing.T) {
	runFixture(t, PlanPure, "ealb/internal/cluster/planpurefixture", "planpure")
}

func TestLockGuard(t *testing.T) {
	runFixture(t, LockGuard, "ealb/internal/lintfixture/lockguard", "lockguard")
}

// hotcallDeps maps the hotcall fixture's dependency package onto its
// testdata directory.
var hotcallDeps = map[string]string{
	"ealb/internal/lintfixture/hotcalldep": "hotcalldep",
}

// TestHotCallFactFlip is the cross-package acceptance check: the same
// fixture that reports transitive-allocation findings with its
// dependency's facts reports nothing when those facts are withheld —
// proof the findings come from the imported fact table, not from
// anything visible in the analyzed package alone.
func TestHotCallFactFlip(t *testing.T) {
	pkg, diags := analyzeFixtureDeps(t, HotPath, "ealb/internal/lintfixture/hotcall", "hotcall", hotcallDeps)
	if len(diags) == 0 {
		t.Fatal("hotcall fixture reported no findings with dependency facts present")
	}
	pkg.ImportFacts = func(string) *PackageFacts { return nil }
	flipped, err := Run(pkg, []*Analyzer{HotPath})
	if err != nil {
		t.Fatal(err)
	}
	if len(flipped) != 0 {
		t.Errorf("withholding the dependency's facts should flip every finding off; still got %d: %v", len(flipped), flipped)
	}
}

// The determinism rules are scoped: the same violations are legal in
// packages outside the deterministic subtrees.
func TestDetRandScopedToDeterministicPackages(t *testing.T) {
	_, diags := analyzeFixture(t, DetRand, "ealb/internal/report/detrandfixture", "detrand")
	if len(diags) != 0 {
		t.Errorf("detrand reported %d diagnostics outside the deterministic packages, want 0: %v", len(diags), diags)
	}
}

// A suppression annotation with no reason is itself a finding — exactly
// one, owned by detrand so it is not duplicated across analyzers.
func TestBareAnnotationNeedsReason(t *testing.T) {
	_, diags := analyzeFixture(t, DetRand, "ealb/internal/cluster/barenote", "barenote")
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1 (the bare annotation): %v", len(diags), diags)
	}
	const want = "ealb annotation must carry a reason"
	if !strings.Contains(diags[0].Message, want) {
		t.Errorf("diagnostic %q does not mention %q", diags[0].Message, want)
	}
}

// analyzeFixture type-checks one testdata/src directory under the given
// import path (the path decides which contracts apply) and returns the
// loaded package with the analyzer's findings.
func analyzeFixture(t *testing.T, a *Analyzer, importPath, fixture string) (*Package, []Diagnostic) {
	t.Helper()
	return analyzeFixtureDeps(t, a, importPath, fixture, nil)
}

// analyzeFixtureDeps is analyzeFixture with additional fixture packages
// overlaid as dependencies (import path → testdata/src directory), for
// cross-package fact tests.
func analyzeFixtureDeps(t *testing.T, a *Analyzer, importPath, fixture string, deps map[string]string) (*Package, []Diagnostic) {
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
	for path, sub := range deps {
		depDir, err := filepath.Abs(filepath.Join("testdata", "src", sub))
		if err != nil {
			t.Fatal(err)
		}
		l.Overlay[path] = depDir
	}
	l.Overlay[importPath] = dir
	pkg, err := l.Load(importPath, dir)
	if err != nil {
		t.Fatalf("loading fixture %s as %s: %v", fixture, importPath, err)
	}
	diags, err := Run(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	return pkg, diags
}

// runFixture analyzes the fixture and checks the findings against its
// `// want` expectations, both ways.
func runFixture(t *testing.T, a *Analyzer, importPath, fixture string) {
	t.Helper()
	runFixtureDeps(t, a, importPath, fixture, nil)
}

// runFixtureDeps is runFixture with dependency overlays.
func runFixtureDeps(t *testing.T, a *Analyzer, importPath, fixture string, deps map[string]string) {
	t.Helper()
	pkg, diags := analyzeFixtureDeps(t, a, importPath, fixture, deps)
	wants := collectWants(t, filepath.Join("testdata", "src", fixture))

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		file, line := filepath.Base(pos.Filename), pos.Line
		matched := false
		for _, w := range wants {
			if w.matched || w.file != file || w.line != line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected %s diagnostic: %s", file, line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q was not reported", w.file, w.line, w.re)
		}
	}
}

// want is one `// want` expectation, keyed by file base name and line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantArgRe extracts the backquoted regexes after a `// want` marker.
var wantArgRe = regexp.MustCompile("`([^`]*)`")

// collectWants parses every fixture file's `// want` comments.
func collectWants(t *testing.T, dir string) []*want {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	var wants []*want
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, args, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			ms := wantArgRe.FindAllStringSubmatch(args, -1)
			if len(ms) == 0 {
				t.Fatalf("%s:%d: malformed want comment (no backquoted regex): %s", path, i+1, line)
			}
			for _, m := range ms {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &want{file: filepath.Base(path), line: i + 1, re: re})
			}
		}
	}
	return wants
}
