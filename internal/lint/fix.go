package lint

import (
	"bytes"
	"fmt"
	"go/token"
	"sort"
)

// fixEdit is a TextEdit resolved to byte offsets within one file.
type fixEdit struct {
	start, end int
	newText    []byte
}

// CollectFixes flattens the suggested fixes of a diagnostic batch into
// per-file offset edits, dropping any fix that overlaps an earlier one
// (first reported wins — re-running ealb-vet -fix converges). Edits
// from one fix are kept or dropped as a unit.
func CollectFixes(fset *token.FileSet, diags []Diagnostic) map[string][]fixEdit {
	byFile := make(map[string][]fixEdit)
	for _, d := range diags {
		for _, fix := range d.SuggestedFixes {
			resolved := make(map[string][]fixEdit)
			ok := true
			for _, e := range fix.Edits {
				start := fset.Position(e.Pos)
				end := start
				if e.End.IsValid() {
					end = fset.Position(e.End)
				}
				if !start.IsValid() || end.Filename != start.Filename || end.Offset < start.Offset {
					ok = false
					break
				}
				resolved[start.Filename] = append(resolved[start.Filename],
					fixEdit{start.Offset, end.Offset, []byte(e.NewText)})
			}
			if !ok {
				continue
			}
			for name, edits := range resolved {
				if overlaps(byFile[name], edits) {
					ok = false
				}
			}
			if !ok {
				continue
			}
			for name, edits := range resolved {
				byFile[name] = append(byFile[name], edits...)
			}
		}
	}
	for name := range byFile {
		es := byFile[name]
		sort.SliceStable(es, func(i, j int) bool { return es[i].start < es[j].start })
		byFile[name] = es
	}
	return byFile
}

func overlaps(have, add []fixEdit) bool {
	for _, a := range add {
		for _, h := range have {
			if a.start < h.end && h.start < a.end {
				return true
			}
			// Two pure insertions at the same offset also conflict: the
			// result depends on application order.
			if a.start == h.start && a.start == a.end && h.start == h.end {
				return true
			}
		}
	}
	return false
}

// ApplyEdits splices sorted, non-overlapping edits into src.
func ApplyEdits(src []byte, edits []fixEdit) ([]byte, error) {
	var out bytes.Buffer
	prev := 0
	for _, e := range edits {
		if e.start < prev || e.end > len(src) {
			return nil, fmt.Errorf("edit [%d,%d) out of bounds or overlapping (len %d)", e.start, e.end, len(src))
		}
		out.Write(src[prev:e.start])
		out.Write(e.newText)
		prev = e.end
	}
	out.Write(src[prev:])
	return out.Bytes(), nil
}

// Diff renders a unified diff between two versions of a file: one hunk
// per changed region with three lines of context, from a line-level
// longest common subsequence. Regions whose context would meet share a
// hunk. Enough for the -fix -diff preview and the CI fix-clean check;
// not a general diff (no "\ No newline at end of file" marker).
func Diff(name string, old, new []byte) string {
	if bytes.Equal(old, new) {
		return ""
	}
	const ctx = 3
	ops := lineOps(splitLines(old), splitLines(new))
	var out bytes.Buffer
	fmt.Fprintf(&out, "--- %s\n+++ %s (fixed)\n", name, name)
	for i := 0; i < len(ops); i++ {
		if ops[i].kind == ' ' {
			continue
		}
		// Extend the hunk over every later change whose gap of equal
		// lines is at most twice the context, then close it.
		lo, hi := max(i-ctx, 0), i
		for {
			for hi < len(ops) && ops[hi].kind != ' ' {
				hi++
			}
			eq := hi
			for eq < len(ops) && ops[eq].kind == ' ' {
				eq++
			}
			if eq == len(ops) || eq-hi > 2*ctx {
				hi = min(hi+ctx, len(ops))
				break
			}
			hi = eq
		}
		var aLen, bLen int
		for _, op := range ops[lo:hi] {
			if op.kind != '+' {
				aLen++
			}
			if op.kind != '-' {
				bLen++
			}
		}
		fmt.Fprintf(&out, "@@ -%s +%s @@\n", hunkRange(ops[lo].a, aLen), hunkRange(ops[lo].b, bLen))
		for _, op := range ops[lo:hi] {
			fmt.Fprintf(&out, "%c%s\n", op.kind, op.text)
		}
		i = hi - 1
	}
	return out.String()
}

// hunkRange renders one side of a hunk header: an empty range names
// the line before it, as in diff -u.
func hunkRange(start, n int) string {
	if n > 0 {
		start++
	}
	return fmt.Sprintf("%d,%d", start, n)
}

// lineOp is one line of an edit script: kind ' ' keeps a line, '-'
// deletes a[a], '+' inserts b[b]. a and b are the positions in each
// version where the op applies.
type lineOp struct {
	kind byte
	a, b int
	text string
}

// lineOps turns a into b with the fewest deleted and inserted lines.
// The common prefix and suffix are matched directly and only the span
// between them fills the LCS table, so a small fix in a large file
// stays cheap. Within a changed region deletions come first.
func lineOps(a, b []string) []lineOp {
	pre := 0
	for pre < len(a) && pre < len(b) && a[pre] == b[pre] {
		pre++
	}
	suf := 0
	for suf < len(a)-pre && suf < len(b)-pre && a[len(a)-1-suf] == b[len(b)-1-suf] {
		suf++
	}
	n, m := len(a)-pre-suf, len(b)-pre-suf
	// lcs[i*w+j] is the LCS length of a[pre+i:pre+n] and b[pre+j:pre+m].
	w := m + 1
	lcs := make([]int32, (n+1)*w)
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[pre+i] == b[pre+j] {
				lcs[i*w+j] = lcs[(i+1)*w+j+1] + 1
			} else {
				lcs[i*w+j] = max(lcs[(i+1)*w+j], lcs[i*w+j+1])
			}
		}
	}
	ops := make([]lineOp, 0, len(a)+m)
	for k := 0; k < pre; k++ {
		ops = append(ops, lineOp{' ', k, k, a[k]})
	}
	i, j := 0, 0
	for i < n || j < m {
		ai, bj := pre+i, pre+j
		switch {
		case i < n && j < m && a[ai] == b[bj]:
			ops = append(ops, lineOp{' ', ai, bj, a[ai]})
			i++
			j++
		case j == m || (i < n && lcs[(i+1)*w+j] >= lcs[i*w+j+1]):
			ops = append(ops, lineOp{'-', ai, bj, a[ai]})
			i++
		default:
			ops = append(ops, lineOp{'+', ai, bj, b[bj]})
			j++
		}
	}
	for k := 0; k < suf; k++ {
		ops = append(ops, lineOp{' ', pre + n + k, pre + m + k, a[pre+n+k]})
	}
	return ops
}

func splitLines(src []byte) []string {
	var out []string
	for len(src) > 0 {
		i := bytes.IndexByte(src, '\n')
		if i < 0 {
			out = append(out, string(src))
			break
		}
		out = append(out, string(src[:i]))
		src = src[i+1:]
	}
	return out
}
