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
