// Package jsonw writes the repository's JSON documents — observer
// artifacts and fredd study results — in one pass, without reflection.
//
// A document's WriteJSON method calls the Writer once per member, in
// struct field order, and applies each field's omitempty tag itself.
// The bytes are those json.MarshalIndent(v, "", "  ") produces for the
// same value, followed by a newline:
//
//   - two-space indent, `"key": value` members, and empty arrays and
//     objects kept as [] and {};
//   - encoding/json string escaping with HTML escaping on: <, > and &
//     become \u003c, \u003e and \u0026; control bytes are escaped;
//     invalid UTF-8 becomes \ufffd; U+2028 and U+2029 are escaped;
//   - encoding/json float formatting: the shortest 'f' form, or 'e'
//     with a one-digit negative exponent cleaned up (e-09 → e-9) when
//     |x| < 1e-6 or |x| ≥ 1e21; NaN and ±Inf are an error.
//
// encoding/json remains the decoder and is the test oracle: the fuzz
// target encodes random documents both ways and compares the bytes.
package jsonw

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Writer appends one indented JSON document to a buffer. Containers
// open with Begin*, members start with Key, and array elements are
// bare values. Keys are written verbatim, so they must be plain
// identifiers that need no escaping.
type Writer struct {
	buf   []byte
	depth int
	empty bool // the innermost container has no element yet
	keyed bool // Key was written; the next value is its member value
	err   error
}

// next starts a value: after a key nothing; otherwise, inside a
// container, the separating comma and the new line's indent.
func (w *Writer) next() {
	if w.keyed {
		w.keyed = false
		return
	}
	if w.depth == 0 {
		return
	}
	if !w.empty {
		w.buf = append(w.buf, ',')
	}
	w.empty = false
	w.newline()
}

// indent is a newline and the two-space indent of up to 16 levels.
const indent = "\n                                "

func (w *Writer) newline() {
	if n := 1 + 2*w.depth; n <= len(indent) {
		w.buf = append(w.buf, indent[:n]...)
		return
	}
	w.buf = append(w.buf, '\n')
	for i := 0; i < w.depth; i++ {
		w.buf = append(w.buf, ' ', ' ')
	}
}

// Key starts an object member; the next call writes its value.
func (w *Writer) Key(k string) *Writer {
	w.next()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, k...)
	w.buf = append(w.buf, '"', ':', ' ')
	w.keyed = true
	return w
}

func (w *Writer) begin(c byte) {
	w.next()
	w.buf = append(w.buf, c)
	w.depth++
	w.empty = true
}

func (w *Writer) end(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.buf = append(w.buf, c)
	w.empty = false
}

// BeginObject opens an object value.
func (w *Writer) BeginObject() { w.begin('{') }

// EndObject closes the innermost object.
func (w *Writer) EndObject() { w.end('}') }

// BeginArray opens an array value.
func (w *Writer) BeginArray() { w.begin('[') }

// EndArray closes the innermost array.
func (w *Writer) EndArray() { w.end(']') }

// Null writes null: a nil slice or pointer without omitempty.
func (w *Writer) Null() {
	w.next()
	w.buf = append(w.buf, "null"...)
}

// Bool writes a boolean.
func (w *Writer) Bool(b bool) {
	w.next()
	w.buf = strconv.AppendBool(w.buf, b)
}

// Int writes a signed integer.
func (w *Writer) Int(i int64) {
	w.next()
	w.buf = strconv.AppendInt(w.buf, i, 10)
}

// Uint writes an unsigned integer.
func (w *Writer) Uint(u uint64) {
	w.next()
	w.buf = strconv.AppendUint(w.buf, u, 10)
}

// Float writes a float64 as encoding/json does. NaN and ±Inf have no
// JSON form: the first one fails the document, as in encoding/json.
func (w *Writer) Float(f float64) {
	w.next()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			// encoding/json's message, for the same value.
			w.err = errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
		}
		w.buf = append(w.buf, "null"...)
		return
	}
	abs := math.Abs(f)
	if abs < 1e15 && f == math.Trunc(f) && f != 0 {
		// Below 1e15 (< 2^53, where every integer is exact) an
		// integral float's shortest form is its integer digits;
		// counts and byte totals take this path. Zero does not, so
		// −0 keeps its sign.
		w.buf = strconv.AppendInt(w.buf, int64(f), 10)
		return
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		b := w.buf
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			w.buf = b[:n-1]
		}
	}
}

// String writes a string with encoding/json's HTML-safe escaping.
func (w *Writer) String(s string) {
	w.next()
	w.buf = appendString(w.buf, s)
}

// The Omit* helpers write one member unless its value is the zero
// value that encoding/json's omitempty drops (−0 included).

// OmitString writes key: s unless s is empty.
func (w *Writer) OmitString(key, s string) {
	if s != "" {
		w.Key(key).String(s)
	}
}

// OmitFloat writes key: f unless f is zero.
func (w *Writer) OmitFloat(key string, f float64) {
	if f != 0 {
		w.Key(key).Float(f)
	}
}

// OmitInt writes key: i unless i is zero.
func (w *Writer) OmitInt(key string, i int64) {
	if i != 0 {
		w.Key(key).Int(i)
	}
}

// OmitUint writes key: u unless u is zero.
func (w *Writer) OmitUint(key string, u uint64) {
	if u != 0 {
		w.Key(key).Uint(u)
	}
}

// OmitBool writes key: true unless b is false.
func (w *Writer) OmitBool(key string, b bool) {
	if b {
		w.Key(key).Bool(b)
	}
}

// maxPooled bounds the scratch buffer a pooled writer keeps: large
// artifacts are rare, and their scratch should not stay resident.
const maxPooled = 1 << 20

var pool = sync.Pool{New: func() any { return new(Writer) }}

// Encode runs write against a pooled writer and returns the document
// plus a trailing newline in a slice of exactly its length (cap ==
// len). Callers such as fredd's result cache keep many bodies alive,
// so handing out the scratch buffer's slack would be resident memory.
func Encode(write func(*Writer)) ([]byte, error) {
	w := pool.Get().(*Writer)
	*w = Writer{buf: w.buf[:0]}
	write(w)
	var out []byte
	err := w.err
	if err == nil {
		out = make([]byte, len(w.buf)+1)
		copy(out, w.buf)
		out[len(w.buf)] = '\n'
	}
	if cap(w.buf) <= maxPooled {
		pool.Put(w)
	}
	return out, err
}

// hex is the digit table of \u escapes.
const hex = "0123456789abcdef"

// appendString is encoding/json's string encoder with HTML escaping.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Other control bytes, and <, > and &.
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		// U+2028 LINE SEPARATOR and U+2029 PARAGRAPH SEPARATOR are
		// valid in JSON but not in JavaScript; escape them.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// htmlSafe reports whether an ASCII byte needs no escaping in an
// HTML-safe JSON string.
func htmlSafe(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}
