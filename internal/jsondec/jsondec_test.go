package jsondec_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/jsondec"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// servedTypes are the documents the fast path is for: the result record
// a client decodes, and the two response shapes that carry it.
var servedTypes = []reflect.Type{
	reflect.TypeFor[stats.Record](),
	reflect.TypeFor[service.JobView](),
	reflect.TypeFor[service.SubmitResponse](),
}

var rawMessageType = reflect.TypeFor[json.RawMessage]()

// fill sets every field under v, however deep, to a distinct non-zero
// value drawn from *n. A RawMessage gets a small object; a slice gets
// two elements. A field of a kind fill does not know fails the test.
func fill(t *testing.T, v reflect.Value, path string, n *int) {
	t.Helper()
	*n++
	if v.Type() == rawMessageType {
		v.SetBytes(fmt.Appendf(nil, `{"n":%d,"s":[true,null,"x"]}`, *n))
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d-é", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if x := -int64(*n) * 1_000_000_007; !v.OverflowInt(x) {
			v.SetInt(x)
		} else {
			v.SetInt(int64(*n))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if x := uint64(*n) << 40; !v.OverflowUint(x) {
			v.SetUint(x)
		} else {
			v.SetUint(uint64(*n))
		}
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 1.0/3)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if sf := v.Type().Field(i); sf.IsExported() {
				fill(t, v.Field(i), path+"."+sf.Name, n)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), path, n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), n)
		}
	default:
		t.Fatalf("%s: fill has no value for a %s", path, v.Type())
	}
}

// TestFastPathDecodesEveryField: each served type, with every field set
// to a distinct non-zero value and marshaled, is decoded by the fast
// path — not the fallback — to a value equal to the original. A field
// added later in a shape the field table cannot decode fails here
// rather than sending every document to encoding/json.
func TestFastPathDecodesEveryField(t *testing.T) {
	for _, typ := range servedTypes {
		t.Run(typ.Name(), func(t *testing.T) {
			n := 0
			want := reflect.New(typ)
			fill(t, want.Elem(), typ.Name(), &n)
			data, err := json.Marshal(want.Interface())
			if err != nil {
				t.Fatal(err)
			}
			got := reflect.New(typ)
			if !jsondec.DecodeFast(data, got.Interface()) {
				t.Fatalf("the fast path refused a marshaled %s:\n%s", typ, data)
			}
			if !reflect.DeepEqual(got.Interface(), want.Interface()) {
				t.Fatalf("fast path decoded %s to\n%+v\nwant\n%+v", data, got.Elem(), want.Elem())
			}
		})
	}
}

// sameAsEncodingJSON decodes data into a zero value of typ with both
// decoders and fails unless the values and the errors are the same.
func sameAsEncodingJSON(t *testing.T, typ reflect.Type, data []byte) {
	t.Helper()
	got, want := reflect.New(typ), reflect.New(typ)
	gerr := jsondec.Unmarshal(data, got.Interface())
	werr := json.Unmarshal(data, want.Interface())
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s from %q: error %v, encoding/json says %v", typ, data, gerr, werr)
	}
	if !reflect.DeepEqual(got.Interface(), want.Interface()) {
		t.Fatalf("%s from %q:\n got %+v\nwant %+v", typ, data, got.Elem(), want.Elem())
	}
}

// TestUnmarshalMatchesEncodingJSON runs documents at and past the fast
// path's edges — repeated, case-folded and unknown keys, nulls, escapes,
// number grammar and range, wrong types, array lengths, malformed raw
// values, trailing bytes — through both decoders.
func TestUnmarshalMatchesEncodingJSON(t *testing.T) {
	docs := []string{
		``, `   `, `null`, `[]`, `{}`, ` { } `, `{`, `{,}`, `{"id":"a",}`, `{"id":"a"`,
		`{"id":"a"} x`, `{"id":"a"}{}`, "\t{\n\"id\" :\r\"a\" }\n",
		`{"jobs":[]}`, `{"jobs":null}`, `{"jobs":[{}]}`, `{"jobs":[{},]}`, `{"jobs":{}}`,
		`{"jobs":[{"id":"a"}],"jobs":[]}`, `{"jobs":[{"id":"a","key":"k"}],"jobs":[{"id":"b"}]}`,
		`{"jobs":[{"id":"a","state":"done"},{"id":"b","cacheHit":true}]}`,
		`{"error":"queue full","retryAfterSeconds":1}`,
		`{"id":"a","id":"b"}`, `{"ID":"a"}`, `{"bogus":1,"id":"a"}`, `{"i\u0064":"a"}`,
		`{"error":"a\"b\nc\u00e9"}`, "{\"id\":\"\xff\"}", "{\"id\":\"\x01\"}", `{"id":"é€"}`,
		`{"id":null}`, `{"result":null}`, `{"cacheHit":null}`, `{"cacheHit":1}`, `{"cacheHit":tru}`,
		`{"seed":-1}`, `{"seed":-0}`, `{"seed":18446744073709551615}`, `{"seed":18446744073709551616}`,
		`{"seed":1e3}`, `{"seed":1.0}`, `{"seed":01}`, `{"seed":"1"}`, `{"seed":+1}`, `{"seed":1x}`,
		`{"threads":-0}`, `{"cycles":-9223372036854775808}`, `{"cycles":9223372036854775808}`,
		`{"cycles":-9223372036854775809}`, `{"cycles":99999999999999999999999}`,
		`{"starvationIndex":1e400}`, `{"starvationIndex":-0.0}`, `{"starvationIndex":1.5e-7}`,
		`{"starvationIndex":1.}`, `{"starvationIndex":.5}`, `{"starvationIndex":1e}`, `{"starvationIndex":2E+2}`,
		`{"abortsBy":[1,2]}`, `{"abortsBy":[1,2,3,4,5,6,7,8]}`, `{"abortsBy":[1,2,3,4,5,6,7]}`,
		`{"abortsBy":[ 1 , 2 ,3,4,5,6,7 ]}`, `{"abortsBy":[]}`, `{"abortsBy":[1,2,3,4,5,6,-7]}`,
		`{"footprintLines":{"n":1,"mean":0.5},"footprintLines":{"max":2}}`, `{"footprintLines":[]}`,
		`{"result":[1,{"a":"\u0041"},true,null,-1.5e3]}`, `{"result":"x"}`, `{"result":{"a" 1}}`,
		`{"result":{"a":tru}}`, "{\"result\":\"\x01\"}", `{"result":"\ud800"}`, `{"result":"\u12"}`,
		`{"result":"\q"}`, `{"result":{ "a" : [ ] , "b" : { } } }`, `{"result":01}`, `{"result":[1,]}`,
	}
	for _, typ := range servedTypes {
		for _, doc := range docs {
			sameAsEncodingJSON(t, typ, []byte(doc))
		}
	}
	// A repeated key decodes into what the first one left: encoding/json
	// merges into a pointer's existing target (log records carry two).
	type withPointer struct {
		P *stats.HistSummary `json:"p"`
	}
	sameAsEncodingJSON(t, reflect.TypeFor[withPointer](), []byte(`{"p":{"n":1},"p":{"max":2}}`))
}

// TestUnsupportedTypesFallBack: targets the field table cannot describe
// go to encoding/json unchanged, errors included.
func TestUnsupportedTypesFallBack(t *testing.T) {
	type withMap struct {
		Name string         `json:"name"`
		M    map[string]int `json:"m"`
	}
	type quoted struct {
		N int `json:"n,string"`
	}
	type inner struct{ A int }
	type embedded struct {
		inner
		B int
	}
	doc := []byte(`{"name":"x","m":{"a":1},"n":"5","A":1,"B":2}`)
	for _, typ := range []reflect.Type{
		reflect.TypeFor[withMap](), reflect.TypeFor[quoted](), reflect.TypeFor[embedded](),
		reflect.TypeFor[*service.JobView](), reflect.TypeFor[map[string]any](), reflect.TypeFor[int](),
	} {
		sameAsEncodingJSON(t, typ, doc)
	}
	var nilView *service.JobView
	if err, want := jsondec.Unmarshal(doc, nilView), json.Unmarshal(doc, nilView); fmt.Sprint(err) != fmt.Sprint(want) {
		t.Fatalf("nil pointer: %v, encoding/json says %v", err, want)
	}
}

// TestServedRecordsDecodeFast: every record of the ScaleTiny matrix (the
// paper's workloads under every detection system, seed 1) decodes
// through the fast path to the value json.Unmarshal gives.
func TestServedRecordsDecodeFast(t *testing.T) {
	for _, wl := range workloads.Names() {
		for _, det := range asfsim.AllDetections {
			spec := harness.CellSpec{Workload: wl, Detection: det, Scale: workloads.ScaleTiny, Seed: 1}
			run, err := harness.RunCell(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(stats.NewRecord(run))
			if err != nil {
				t.Fatal(err)
			}
			var got, want stats.Record
			if !jsondec.DecodeFast(data, &got) {
				t.Fatalf("%s/%s: the fast path refused the record:\n%s", wl, det, data)
			}
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s/%s: fast path decoded\n%+v\nencoding/json\n%+v", wl, det, got, want)
			}
		}
	}
}

// BenchmarkUnmarshal decodes a served cache hit — the submit response,
// then its result record — with jsondec and with encoding/json.
func BenchmarkUnmarshal(b *testing.B) {
	spec := harness.CellSpec{Workload: "kmeans", Detection: asfsim.DetectSubBlock4, Scale: workloads.ScaleTiny, Seed: 1}
	run, err := harness.RunCell(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	result, err := json.Marshal(stats.NewRecord(run))
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(service.SubmitResponse{Jobs: []service.JobView{{
		ID: "job-000004", Key: service.Key(spec), State: service.JobDone, Workload: "kmeans",
		Detection: "subblock-4", Scale: "tiny", Seed: 1, CacheHit: true, Result: result,
	}}})
	if err != nil {
		b.Fatal(err)
	}
	for _, dec := range []struct {
		name      string
		unmarshal func([]byte, any) error
	}{{"jsondec", jsondec.Unmarshal}, {"encoding-json", json.Unmarshal}} {
		b.Run(dec.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var resp service.SubmitResponse
				var rec stats.Record
				if err := dec.unmarshal(body, &resp); err != nil {
					b.Fatal(err)
				}
				if err := dec.unmarshal(resp.Jobs[0].Result, &rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
