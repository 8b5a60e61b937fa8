package store

// The walker reads compact JSON — json.Marshal output, or a result
// Valid has checked — by its structural bytes alone: quotes,
// backslashes in strings, and brackets. It does not validate, but on
// any input it stays in bounds and reports a failure as an offset of
// -1. The disk store cuts a record's result out with it, and the
// service splices and slices recorded results with it. Valid is the
// one validator: the service checks each recorded result with it once,
// when Recover loads the run.

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

// maxDepth is encoding/json's nesting limit: json.Valid accepts arrays
// and objects nested 10,000 deep and rejects 10,001.
const maxDepth = 10000

// Valid reports whether b is one JSON value, with optional whitespace
// around it and between its tokens, accepting exactly what json.Valid
// accepts: strings hold no raw byte below 0x20 and only the escapes
// \" \\ \/ \b \f \n \r \t and \u with four hex digits, but need not be
// valid UTF-8; numbers, true, false and null follow RFC 8259; and
// nesting stops at maxDepth. It allocates nothing: one bit per open
// level, object or array, replaces recursion, so hostile nesting is
// bounded too. FuzzValid pins it to json.Valid.
func Valid(b []byte) bool {
	var inObject [maxDepth/64 + 1]uint64 // bit d: level d is an object
	depth := 0
	i := skipSpace(b, 0)
	for {
		// A value starts at b[i].
		if i >= len(b) {
			return false
		}
		switch c := b[i]; c {
		case '{', '[':
			if depth == maxDepth {
				return false
			}
			w, bit := depth>>6, uint64(1)<<(depth&63)
			depth++
			if i = skipSpace(b, i+1); i < len(b) && b[i] == c+2 { // '}' or ']'
				i++
				depth--
				break
			}
			if c == '[' {
				inObject[w] &^= bit
				continue
			}
			inObject[w] |= bit
			if i = member(b, i); i < 0 {
				return false
			}
			continue
		case '"':
			if i = skipString(b, i); i < 0 {
				return false
			}
		case 't':
			if i = literal(b, i, "true"); i < 0 {
				return false
			}
		case 'f':
			if i = literal(b, i, "false"); i < 0 {
				return false
			}
		case 'n':
			if i = literal(b, i, "null"); i < 0 {
				return false
			}
		default:
			if i = skipNumber(b, i); i < 0 {
				return false
			}
		}
		// Past a value: close the levels that end here, up to the next
		// value or the end of b.
		for {
			if i = skipSpace(b, i); depth == 0 {
				return i == len(b)
			}
			if i >= len(b) {
				return false
			}
			d := depth - 1
			obj := inObject[d>>6]&(1<<(d&63)) != 0
			if b[i] == ',' {
				if i = skipSpace(b, i+1); obj {
					if i = member(b, i); i < 0 {
						return false
					}
				}
				break
			}
			closing := byte(']')
			if obj {
				closing = '}'
			}
			if b[i] != closing {
				return false
			}
			i++
			depth--
		}
	}
}

// space marks JSON's four whitespace bytes.
var space = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// skipSpace returns the offset of the first byte at or after b[i] that
// is not whitespace, or len(b).
func skipSpace(b []byte, i int) int {
	for i < len(b) && space[b[i]] {
		i++
	}
	return i
}

// member returns the offset of the value of the object member whose
// key starts at b[i], past the key, the colon and the whitespace
// around them, or -1 when no key and colon start there.
func member(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	if i = skipString(b, i); i < 0 {
		return -1
	}
	if i = skipSpace(b, i); i >= len(b) || b[i] != ':' {
		return -1
	}
	return skipSpace(b, i+1)
}

// stringStop marks the bytes that end the plain run of a string: the
// closing quote, a backslash, and the control bytes a string may not
// hold raw.
var stringStop = func() (t [256]bool) {
	for c := range 0x20 {
		t[c] = true
	}
	t['"'], t['\\'] = true, true
	return t
}()

// skipString returns the offset just past the valid string starting at
// b[i], a quote, or -1 when it is invalid or not closed.
func skipString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		if !stringStop[b[i]] {
			continue
		}
		switch b[i] {
		case '"':
			return i + 1
		case '\\':
			if i++; i >= len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i < 5 || !hex[b[i+1]] || !hex[b[i+2]] || !hex[b[i+3]] || !hex[b[i+4]] {
					return -1
				}
				i += 4
			default:
				return -1
			}
		default:
			return -1 // a raw control byte
		}
	}
	return -1
}

// hex marks the hexadecimal digits.
var hex = func() (t [256]bool) {
	for _, c := range "0123456789abcdefABCDEF" {
		t[c] = true
	}
	return t
}()

// skipNumber returns the offset just past the number starting at b[i],
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or -1 when none does.
// Where the number stops is the caller's to check.
func skipNumber(b []byte, i int) int {
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if j := skipDigits(b, i+1); j > i+1 {
			i = j
		} else {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := skipDigits(b, i); j > i {
			i = j
		} else {
			return -1
		}
	}
	return i
}

// skipDigits returns the offset of the first byte at or after b[i]
// that is not a decimal digit, or len(b).
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// literal returns the offset just past lit, true, false or null, when
// b[i:] starts with it, or -1.
func literal(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}
