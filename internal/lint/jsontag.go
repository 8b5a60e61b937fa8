package lint

import (
	"go/ast"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// JSONTag codifies the PR 5 digest-stability rule for every type that
// feeds a golden digest or an NDJSON stream: the JSON encoding of these
// structs is pinned byte-for-byte by the golden tests, so field naming
// must be explicit (never implied by the Go identifier, which a rename
// would silently change) and optional additions must omit their zero
// value so historical runs keep their historical bytes.
//
// Types opt in with //ealb:digest on their declaration. For each such
// struct the analyzer requires every exported field to carry an
// explicit json struct tag (a bare `json:",omitempty"` counts: the name
// is then intentionally the field name), and every pointer-typed field
// — the codebase's convention for "optional, added after the format was
// pinned" (IntervalStats.Availability) — to include omitempty.
var JSONTag = &Analyzer{
	Name: "jsontag",
	Doc: "require explicit json tags on every exported field of structs " +
		"annotated //ealb:digest, and omitempty on their pointer-typed " +
		"(optional) fields — the digest-stability rule",
	Run: runJSONTag,
}

func runJSONTag(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				// The marker may sit on the type spec or, for a
				// single-spec declaration, on the gen decl.
				if !docHasMarker(ts.Doc, noteDigest) && !(len(gd.Specs) == 1 && docHasMarker(gd.Doc, noteDigest)) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					pass.Reportf(ts.Pos(), "//ealb:digest applies to struct types only")
					continue
				}
				checkDigestStruct(pass, ts.Name.Name, st)
			}
		}
	}
	return nil
}

func checkDigestStruct(pass *Pass, typeName string, st *ast.StructType) {
	for _, field := range st.Fields.List {
		names := field.Names
		if len(names) == 0 {
			// Embedded field: promoted fields are checked where the
			// embedded type is declared (mark it //ealb:digest too).
			continue
		}
		for _, name := range names {
			if !name.IsExported() {
				continue
			}
			tag, hasTag := jsonTagOf(field)
			if !hasTag {
				msg := "digest type %s: exported field %s has no explicit json tag; the wire name must not depend on the Go identifier"
				// Pinning the current wire name — the Go identifier — is
				// mechanical when the field has no tag literal at all and
				// names exactly one field.
				if field.Tag == nil && len(names) == 1 {
					pass.ReportFix(name.Pos(), SuggestedFix{
						Message: "pin the current wire name with an explicit json tag",
						Edits: []TextEdit{{
							Pos: field.Type.End(), End: field.Type.End(),
							NewText: " `json:\"" + name.Name + "\"`",
						}},
					}, msg, typeName, name.Name)
				} else {
					pass.Reportf(name.Pos(), msg, typeName, name.Name)
				}
				continue
			}
			if tag == "-" {
				continue
			}
			if isPointer(pass, field.Type) && !tagHasOmitempty(tag) {
				msg := "digest type %s: optional (pointer) field %s must be `json:\"...,omitempty\"` so historical encodings keep their bytes"
				if lit := omitemptyTagLit(field, tag); lit != "" {
					pass.ReportFix(name.Pos(), SuggestedFix{
						Message: "add omitempty to the json tag",
						Edits:   []TextEdit{{Pos: field.Tag.Pos(), End: field.Tag.End(), NewText: lit}},
					}, msg, typeName, name.Name)
				} else {
					pass.Reportf(name.Pos(), msg, typeName, name.Name)
				}
			}
		}
	}
}

// omitemptyTagLit rebuilds a field's tag literal with ",omitempty"
// appended to the json key's value, or returns "" when the literal is
// not mechanically rewritable (non-backquoted, or the json key text is
// not found verbatim).
func omitemptyTagLit(field *ast.Field, tag string) string {
	raw := field.Tag.Value
	if !strings.HasPrefix(raw, "`") || !strings.HasSuffix(raw, "`") {
		return ""
	}
	old := `json:"` + tag + `"`
	if !strings.Contains(raw, old) {
		return ""
	}
	return strings.Replace(raw, old, `json:"`+tag+`,omitempty"`, 1)
}

// jsonTagOf extracts the json struct-tag value of a field, reporting
// whether one is present at all.
func jsonTagOf(field *ast.Field) (string, bool) {
	if field.Tag == nil {
		return "", false
	}
	raw, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		return "", false
	}
	tag, ok := reflect.StructTag(raw).Lookup("json")
	return tag, ok
}

func tagHasOmitempty(tag string) bool {
	parts := strings.Split(tag, ",")
	for _, p := range parts[1:] {
		if p == "omitempty" {
			return true
		}
	}
	return false
}

func isPointer(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}
