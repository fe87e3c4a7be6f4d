package jsondec

import "reflect"

// DecodeFast runs only the fast path over data into *v (a non-nil
// pointer) and reports whether it took the document. It exists for the
// tests, which must tell a fast-path decode from a fallback.
func DecodeFast(data []byte, v any) bool {
	rv := reflect.ValueOf(v)
	st := tableFor(rv.Type().Elem())
	return st != nil && decodeDocument(data, rv.Elem(), st)
}
