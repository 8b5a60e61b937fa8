package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const sortedSrc = `package sorted

import "sort"

func Sorted(xs []int) []int {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs
}
`

// tinyModule writes a one-package module holding a single sort.Slice
// into a temp directory and returns the module root.
func tinyModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module tiny\n\ngo 1.24\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(root, "sorted"), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "sorted", "sorted.go"), []byte(sortedSrc), 0o666); err != nil {
		t.Fatal(err)
	}
	return root
}

// runVet runs the driver in process and returns its exit status and
// standard output.
func runVet(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("ealb-vet %s stderr:\n%s", strings.Join(args, " "), stderr.String())
	}
	return code, stdout.String()
}

// TestReportFixClean runs the report, the fix, and the report again on
// the tiny module: the finding prints module-relative and exits 2, the
// fix rewrites the call, and the fixed module is clean.
func TestReportFixClean(t *testing.T) {
	root := tinyModule(t)

	// Started from the package directory, the driver still finds the
	// module root and names the file relative to it.
	code, out := runVet(t, filepath.Join(root, "sorted"))
	const want = "sorted/sorted.go:6:2: sort.Slice breaks comparator ties unpredictably; " +
		"use sort.SliceStable, or annotate //ealb:allow-nondet with a tie-freedom argument\n"
	if code != 2 || out != want {
		t.Fatalf("report: exit %d, output\n%s\nwant exit 2, output\n%s", code, out, want)
	}

	code, out = runVet(t, "-fix", root)
	if code != 0 || out != "ealb-vet: fixed sorted/sorted.go\n" {
		t.Fatalf("-fix: exit %d, output %q", code, out)
	}
	src, err := os.ReadFile(filepath.Join(root, "sorted", "sorted.go"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(src), strings.Replace(sortedSrc, "sort.Slice(", "sort.SliceStable(", 1); got != want {
		t.Fatalf("-fix rewrote the file to\n%s\nwant\n%s", got, want)
	}

	if code, out = runVet(t, root); code != 0 || out != "" {
		t.Fatalf("after -fix: exit %d, output %q; want exit 0, no output", code, out)
	}
}

// TestUsageError checks that an unknown flag and a second directory are
// usage errors, which exit 2 without loading anything.
func TestUsageError(t *testing.T) {
	for _, args := range [][]string{{"-diff"}, {"a", "b"}} {
		if code, _ := runVet(t, args...); code != 2 {
			t.Errorf("ealb-vet %s: exit %d, want 2", strings.Join(args, " "), code)
		}
	}
}

// TestListMatchesDesignTable checks that the analyzers `ealb-vet -list`
// prints are exactly those named in the Analyzer column of DESIGN.md's
// contract table, so neither the roster nor the docs can drift alone.
// A contract a test enforces names no analyzer there.
func TestListMatchesDesignTable(t *testing.T) {
	code, out := runVet(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		name, _, _ := strings.Cut(line, ":")
		listed = append(listed, name)
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	col := -1
	for _, line := range strings.Split(string(design), "\n") {
		if !strings.HasPrefix(line, "|") {
			col = -1
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if col < 0 {
			col = slices.IndexFunc(cells, func(c string) bool { return strings.TrimSpace(c) == "Analyzer" })
			continue
		}
		if col >= len(cells) {
			continue
		}
		cell := strings.TrimSpace(cells[col])
		if name, ok := strings.CutPrefix(cell, "`"); ok && strings.HasSuffix(name, "`") {
			documented = append(documented, strings.TrimSuffix(name, "`"))
		}
	}

	slices.Sort(listed)
	slices.Sort(documented)
	if len(documented) == 0 || !slices.Equal(listed, documented) {
		t.Errorf("ealb-vet -list names %v; DESIGN.md's contract table names %v", listed, documented)
	}
}
