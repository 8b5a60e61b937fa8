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

// CollectFixes resolves the suggested fixes of a diagnostic batch into
// per-file offset edits, sorted by offset, dropping any fix that
// overlaps an earlier one (first reported wins — re-running ealb-vet
// -fix converges).
func CollectFixes(fset *token.FileSet, diags []Diagnostic) map[string][]fixEdit {
	byFile := make(map[string][]fixEdit)
	for _, d := range diags {
		if d.Fix == nil {
			continue
		}
		start, end := fset.Position(d.Fix.Pos), fset.Position(d.Fix.End)
		if !start.IsValid() || end.Filename != start.Filename || end.Offset < start.Offset {
			continue
		}
		e := fixEdit{start.Offset, end.Offset, []byte(d.Fix.NewText)}
		if !overlaps(byFile[start.Filename], e) {
			byFile[start.Filename] = append(byFile[start.Filename], e)
		}
	}
	for _, es := range byFile {
		sort.SliceStable(es, func(i, j int) bool { return es[i].start < es[j].start })
	}
	return byFile
}

func overlaps(have []fixEdit, e fixEdit) bool {
	for _, h := range have {
		if e.start < h.end && h.start < e.end {
			return true
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
