package store

// The walker reads compact JSON — json.Marshal output, or a record
// json.Valid has checked — by its structural bytes alone: quotes,
// backslashes in strings, and brackets. It does not validate, but on
// any input it stays in bounds and reports a failure as an offset of
// -1. The disk store cuts a record's result out with it, and the
// service splices and slices recorded results with it.

// structural marks the bytes skipContainer stops at outside strings.
var structural = [256]bool{'"': true, '{': true, '[': true, '}': true, ']': true}

// SkipValue returns the offset just past the value starting at b[i], or
// -1 when there is none (or i is -1).
func SkipValue(b []byte, i int) int {
	if i < 0 || i >= len(b) {
		return -1
	}
	switch b[i] {
	case '"', '{', '[':
		return skipContainer(b, i)
	}
	// A number, true, false or null runs to the next delimiter.
	for ; i < len(b); i++ {
		switch b[i] {
		case ',', ':', '}', ']':
			return i
		}
	}
	return i
}

// skipContainer returns the offset just past the string, object or
// array starting at b[i], or -1 when it is not closed.
func skipContainer(b []byte, i int) int {
	depth := 0
	for ; i < len(b); i++ {
		if !structural[b[i]] {
			continue
		}
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if depth == 0 {
				if i >= len(b) {
					return -1
				}
				return i + 1
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		}
	}
	return -1
}

// Field returns the offset of the value of the first field in the
// object starting at b[i] whose key is one of keys, or -1 when b[i:] is
// no object holding one (or i is -1). A returned offset is in b.
func Field(b []byte, i int, keys ...string) int {
	if i < 0 || i >= len(b) || b[i] != '{' {
		return -1
	}
	for i++; i < len(b) && b[i] == '"'; {
		k := skipContainer(b, i)
		if k < 0 || k+1 >= len(b) || b[k] != ':' {
			return -1
		}
		for _, key := range keys {
			if string(b[i+1:k-1]) == key {
				return k + 1
			}
		}
		end := SkipValue(b, k+1)
		if end < 0 {
			return -1
		}
		if i = end; i < len(b) && b[i] == ',' {
			i++
		}
	}
	return -1
}
