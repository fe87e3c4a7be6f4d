// Package jsondec decodes the JSON documents asfd serves and persists —
// job views, submit responses, result records, log records — in one
// pass, with json.Unmarshal's contract.
//
// A field table per struct type is built once from the json tags. The
// fast path walks the document once, setting fields through reflect.Value
// setters, and accepts only a document it parsed completely: exact-case
// known keys, each at most once; no null outside a json.RawMessage;
// strings with no backslash and valid UTF-8; numbers that follow JSON's
// grammar and fit their field. Anything else, including a Go type the
// table cannot describe, goes to encoding/json, which stays the decoder
// of record: on a zero-valued target the value and the error Unmarshal
// leaves are json.Unmarshal's for every input.
package jsondec

import (
	"encoding"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Unmarshal decodes data into v exactly as json.Unmarshal would, given
// that *v is the zero value of its type. Every caller must pass a zero
// value: when the fast path gives up part way through, *v is reset to
// zero and json.Unmarshal decodes it again, so fields set before the
// call would be lost.
func Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer && !rv.IsNil() {
		if st := tableFor(rv.Type().Elem()); st != nil {
			if decodeDocument(data, rv.Elem(), st) {
				return nil
			}
			rv.Elem().SetZero()
		}
	}
	return json.Unmarshal(data, v)
}

// decodeDocument runs the fast path over a whole document whose top
// value is an object decoded into v. It reports whether it took the
// document; on false, v may hold part of it.
func decodeDocument(data []byte, v reflect.Value, st *structTable) bool {
	d := decoder{data: data}
	d.space()
	if !d.object(v, st, 0) {
		return false
	}
	d.space()
	return d.pos == len(d.data)
}

// maxDepth bounds nesting on the fast path. Deeper documents go to
// encoding/json, which has its own (larger) limit.
const maxDepth = 512

// maxFields bounds the fields of one struct type on the fast path, the
// size of the per-object duplicate-key set.
const maxFields = 256

type fieldKind uint8

const (
	kindString fieldKind = iota
	kindBool
	kindInt
	kindUint
	kindFloat
	kindIntArray  // fixed-length array of signed integers
	kindUintArray // fixed-length array of unsigned integers
	kindStruct
	kindStructPtr
	kindStructSlice
	kindRaw // json.RawMessage
)

type field struct {
	name  string
	index int // reflect field index in the struct
	kind  fieldKind
	elem  *structTable // kindStruct, kindStructPtr, kindStructSlice
}

// structTable is the field table of one struct type: its decodable
// fields in declaration order and their index by JSON name.
type structTable struct {
	fields []field
	byName map[string]int
}

// tables caches tableFor by type: a *structTable, or a nil one for a
// type the fast path does not decode.
var tables sync.Map

// tableFor returns t's field table, or nil when t is not a struct the
// fast path can decode in full.
func tableFor(t reflect.Type) *structTable {
	if st, ok := tables.Load(t); ok {
		return st.(*structTable)
	}
	st := buildTable(t, map[reflect.Type]*structTable{})
	tables.Store(t, st)
	return st
}

var (
	rawMessageType      = reflect.TypeFor[json.RawMessage]()
	jsonUnmarshalerType = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshalerType = reflect.TypeFor[encoding.TextUnmarshaler]()
)

// customDecoded reports whether encoding/json would hand values of t to
// the type's own UnmarshalJSON or UnmarshalText.
func customDecoded(t reflect.Type) bool {
	p := reflect.PointerTo(t)
	return t.Implements(jsonUnmarshalerType) || p.Implements(jsonUnmarshalerType) ||
		t.Implements(textUnmarshalerType) || p.Implements(textUnmarshalerType)
}

// buildTable describes struct type t, or returns nil if any field,
// however deep, has a shape the fast path does not decode. building
// holds the tables under construction, so a recursive type refers to
// itself.
func buildTable(t reflect.Type, building map[reflect.Type]*structTable) *structTable {
	if t.Kind() != reflect.Struct || customDecoded(t) || t.NumField() > maxFields {
		return nil
	}
	if st, ok := building[t]; ok {
		return st
	}
	st := &structTable{byName: map[string]int{}}
	building[t] = st
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			return nil // embedded fields follow encoding/json's promotion rules
		}
		if !sf.IsExported() {
			continue
		}
		tag := sf.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if strings.Contains(","+opts+",", ",string,") || !plainName(name) {
			return nil
		}
		if name == "" {
			name = sf.Name
		}
		if _, dup := st.byName[name]; dup {
			return nil
		}
		f, ok := describe(sf.Type, building)
		if !ok {
			return nil
		}
		f.name, f.index = name, i
		st.byName[name] = len(st.fields)
		st.fields = append(st.fields, f)
	}
	return st
}

// plainName reports whether a tag name is one encoding/json takes as
// written and the fast path can match byte for byte: empty (the Go
// field name is used) or ASCII letters, digits, '_' and '-'.
func plainName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// describe classifies a field type, reporting false for a shape the
// fast path does not decode.
func describe(t reflect.Type, building map[reflect.Type]*structTable) (field, bool) {
	if t == rawMessageType {
		return field{kind: kindRaw}, true
	}
	if customDecoded(t) {
		return field{}, false
	}
	switch t.Kind() {
	case reflect.String:
		return field{kind: kindString}, true
	case reflect.Bool:
		return field{kind: kindBool}, true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return field{kind: kindInt}, true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return field{kind: kindUint}, true
	case reflect.Float32, reflect.Float64:
		return field{kind: kindFloat}, true
	case reflect.Array:
		e := t.Elem()
		if customDecoded(e) {
			return field{}, false
		}
		switch e.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			return field{kind: kindIntArray}, true
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			return field{kind: kindUintArray}, true
		}
	case reflect.Struct:
		if st := buildTable(t, building); st != nil {
			return field{kind: kindStruct, elem: st}, true
		}
	case reflect.Pointer:
		if st := buildTable(t.Elem(), building); st != nil {
			return field{kind: kindStructPtr, elem: st}, true
		}
	case reflect.Slice:
		if st := buildTable(t.Elem(), building); st != nil {
			return field{kind: kindStructSlice, elem: st}, true
		}
	}
	return field{}, false
}

// decoder is the fast path's cursor over one document. Every method
// reports whether the input at the cursor had the expected shape;
// false abandons the document.
type decoder struct {
	data []byte
	pos  int
}

// space moves the cursor past JSON white space. Every white space byte
// is at most ' ', so the common case, none, costs one comparison.
func (d *decoder) space() {
	for d.pos < len(d.data) && d.data[d.pos] <= ' ' {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume skips white space and then c, reporting whether c was there.
func (d *decoder) consume(c byte) bool {
	d.space()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// more reads what follows an element of an object or array: a comma
// (more elements follow) or the closing byte (the container ends).
func (d *decoder) more(close byte) (more, ok bool) {
	d.space()
	if d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ',':
			d.pos++
			return true, true
		case close:
			d.pos++
			return false, true
		}
	}
	return false, false
}

// object decodes the object at the cursor into struct v.
func (d *decoder) object(v reflect.Value, st *structTable, depth int) bool {
	if depth > maxDepth || !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var seen [maxFields / 64]uint64
	next := 0 // fields usually arrive in declaration order
	for {
		d.space()
		i, ok := d.key(st, next)
		if !ok || !d.consume(':') {
			return false
		}
		if seen[i/64]&(1<<(i%64)) != 0 {
			return false // a repeated key merges in encoding/json
		}
		seen[i/64] |= 1 << (i % 64)
		next = i + 1
		d.space()
		if !d.value(v.Field(st.fields[i].index), &st.fields[i], depth) {
			return false
		}
		if more, ok := d.more('}'); !more {
			return ok
		}
	}
}

// key reads the key at the cursor and returns its field's position in
// st. The field at position guess, the one after the last key read, is
// tried first: it is the next key whenever keys arrive in declaration
// order, and then the key's bytes are compared with no scan.
func (d *decoder) key(st *structTable, guess int) (int, bool) {
	if guess < len(st.fields) {
		// A field name holds no quote or backslash, so a match followed
		// by a quote is the whole key, unescaped.
		name, rest := st.fields[guess].name, d.data[d.pos:]
		if len(rest) > len(name)+1 && rest[0] == '"' && string(rest[1:1+len(name)]) == name && rest[1+len(name)] == '"' {
			d.pos += len(name) + 2
			return guess, true
		}
	}
	key, ok := d.plainString()
	if !ok {
		return 0, false
	}
	i, ok := st.byName[string(key)]
	return i, ok
}

// value decodes the value at the cursor into fv, a field described by f.
func (d *decoder) value(fv reflect.Value, f *field, depth int) bool {
	switch f.kind {
	case kindString:
		s, ok := d.plainString()
		if ok {
			fv.SetString(string(s))
		}
		return ok
	case kindBool:
		switch {
		case d.literal("true"):
			fv.SetBool(true)
		case d.literal("false"):
			fv.SetBool(false)
		default:
			return false
		}
		return true
	case kindInt:
		return d.int(fv)
	case kindUint:
		return d.uint(fv)
	case kindFloat:
		return d.float(fv)
	case kindIntArray, kindUintArray:
		if !d.consume('[') {
			return false
		}
		for j := 0; j < fv.Len(); j++ {
			if j > 0 && !d.consume(',') {
				return false
			}
			d.space()
			if f.kind == kindIntArray && !d.int(fv.Index(j)) || f.kind == kindUintArray && !d.uint(fv.Index(j)) {
				return false
			}
		}
		return d.consume(']') // a shorter or longer array is encoding/json's
	case kindStruct:
		return d.object(fv, f.elem, depth+1)
	case kindStructPtr:
		p := reflect.New(fv.Type().Elem())
		if !d.object(p.Elem(), f.elem, depth+1) {
			return false
		}
		fv.Set(p)
		return true
	case kindStructSlice:
		if !d.consume('[') {
			return false
		}
		if d.consume(']') {
			fv.Set(reflect.MakeSlice(fv.Type(), 0, 0)) // empty, not nil, as encoding/json leaves it
			return true
		}
		for j := 0; ; j++ {
			fv.Grow(1)
			fv.SetLen(j + 1)
			d.space()
			if !d.object(fv.Index(j), f.elem, depth+1) {
				return false
			}
			if more, ok := d.more(']'); !more {
				return ok
			}
		}
	case kindRaw:
		start := d.pos
		if !d.skip(depth + 1) {
			return false
		}
		fv.SetBytes(append(json.RawMessage(nil), d.data[start:d.pos]...))
		return true
	}
	return false
}

// plainString reads a string at the cursor and returns its contents, if
// it needs no unescaping and is valid UTF-8 (so its bytes are its
// value).
func (d *decoder) plainString() ([]byte, bool) {
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, false
	}
	start := d.pos + 1
	var high byte // every byte of the string OR'd: < 0x80 if it is ASCII
	for i := start; i < len(d.data); i++ {
		c := d.data[i]
		if plain[c] {
			high |= c
			continue
		}
		if c != '"' {
			return nil, false // an escape or a control character
		}
		s := d.data[start:i]
		if high >= utf8.RuneSelf && !utf8.Valid(s) {
			return nil, false
		}
		d.pos = i + 1
		return s, true
	}
	return nil, false
}

// plain marks the bytes that stand for themselves inside a JSON string:
// all but the quote, the backslash and the control characters.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// literal consumes word if it is at the cursor.
func (d *decoder) literal(word string) bool {
	if len(d.data)-d.pos >= len(word) && string(d.data[d.pos:d.pos+len(word)]) == word {
		d.pos += len(word)
		return true
	}
	return false
}

// number reads a number at the cursor that follows JSON's grammar and
// returns its text and whether it is an integer (no fraction or
// exponent).
func (d *decoder) number() (text []byte, integer, ok bool) {
	b, i := d.data, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if i++; i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, false, false
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, false, false
		}
		i = digits(b, i)
	}
	text, d.pos = b[d.pos:i], i
	return text, integer, true
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// magnitude parses an integer's digits (after any sign), reporting
// false if they overflow uint64.
func magnitude(text []byte) (uint64, bool) {
	var n uint64
	for _, c := range text {
		if n > (1<<64-1)/10 {
			return 0, false
		}
		n *= 10
		m := n + uint64(c-'0')
		if m < n {
			return 0, false
		}
		n = m
	}
	return n, true
}

// int decodes an integer into signed fv, as strconv.ParseInt and
// fv.OverflowInt judge it.
func (d *decoder) int(fv reflect.Value) bool {
	text, integer, ok := d.number()
	if !ok || !integer {
		return false
	}
	neg := text[0] == '-'
	if neg {
		text = text[1:]
	}
	mag, ok := magnitude(text)
	var n int64
	switch {
	case !ok:
		return false
	case neg && mag <= 1<<63:
		n = int64(-mag)
	case !neg && mag < 1<<63:
		n = int64(mag)
	default:
		return false
	}
	if fv.OverflowInt(n) {
		return false
	}
	fv.SetInt(n)
	return true
}

// uint decodes a non-negative integer into unsigned fv.
func (d *decoder) uint(fv reflect.Value) bool {
	text, integer, ok := d.number()
	if !ok || !integer || text[0] == '-' {
		return false
	}
	n, ok := magnitude(text)
	if !ok || fv.OverflowUint(n) {
		return false
	}
	fv.SetUint(n)
	return true
}

// float decodes a number into floating-point fv, as strconv.ParseFloat
// at fv's precision judges it.
func (d *decoder) float(fv reflect.Value) bool {
	text, _, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(text), fv.Type().Bits())
	if err != nil {
		return false
	}
	fv.SetFloat(f)
	return true
}

// skip moves the cursor past one JSON value of any shape, checking it
// against JSON's grammar as it goes, for a json.RawMessage to capture.
func (d *decoder) skip(depth int) bool {
	if depth > maxDepth || d.pos >= len(d.data) {
		return false
	}
	switch d.data[d.pos] {
	case '{':
		d.pos++
		if d.consume('}') {
			return true
		}
		for {
			d.space()
			if !d.skipString() || !d.consume(':') {
				return false
			}
			d.space()
			if !d.skip(depth + 1) {
				return false
			}
			if more, ok := d.more('}'); !more {
				return ok
			}
		}
	case '[':
		d.pos++
		if d.consume(']') {
			return true
		}
		for {
			d.space()
			if !d.skip(depth + 1) {
				return false
			}
			if more, ok := d.more(']'); !more {
				return ok
			}
		}
	case '"':
		return d.skipString()
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	_, _, ok := d.number()
	return ok
}

// skipString moves the cursor past a string at the cursor, escapes
// included, checking each escape against JSON's grammar.
func (d *decoder) skipString() bool {
	b := d.data
	if d.pos >= len(b) || b[d.pos] != '"' {
		return false
	}
	for i := d.pos + 1; i < len(b); i++ {
		switch c := b[i]; {
		case plain[c]:
		case c == '"':
			d.pos = i + 1
			return true
		case c < 0x20:
			return false
		case c == '\\':
			if i++; i >= len(b) {
				return false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) {
					return false
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return false
					}
				}
				i += 4
			default:
				return false
			}
		}
	}
	return false
}
