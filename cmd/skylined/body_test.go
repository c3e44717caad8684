package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	mrskyline "mrskyline"
)

// referenceDecode is decodeBody's decoder before the row reader: the
// whole body, "data" matrix included, through encoding/json. The fuzz
// target holds decodeBody to it.
func referenceDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

// decodeBytes runs body through decodeBody as a request body under the
// default cap.
func decodeBytes(body []byte, v any) error {
	s := &server{maxBody: maxBodyBytes}
	r := httptest.NewRequest(http.MethodPost, "/v1/skyline", bytes.NewReader(body))
	return s.decodeBody(httptest.NewRecorder(), r, v)
}

// hostileRows are row values no request may carry: each is a 400 as a
// "data" matrix row and as a delta's "row".
var hostileRows = []struct{ name, row string }{
	{"null element", `[0.1,null]`},
	{"null row", `null`},
	{"NaN", `[0.1,NaN]`},
	{"Infinity", `[0.1,Infinity]`},
	{"-Infinity", `[0.1,-Infinity]`},
	{"out of range", `[0.1,1e400]`},
	{"bare minus", `[0.1,-]`},
	{"leading zero", `[0.1,01]`},
	{"no integer part", `[0.1,.5]`},
	{"no fraction digits", `[0.1,1.]`},
	{"leading plus", `[0.1,+1]`},
	{"hex", `[0.1,0x10]`},
	{"string element", `[0.1,"0.2"]`},
	{"nested array", `[0.1,[0.2]]`},
	{"trailing comma", `[0.1,0.2,]`},
}

// hostileBodies are the three routes' bodies around one hostile row.
func hostileBodies(row string) []struct{ path, body string } {
	return []struct{ path, body string }{
		{"/v1/skyline", `{"data":[[0.5,0.5],` + row + `]}`},
		{"/v1/datasets", `{"name":"v","data":[[0.5,0.5],` + row + `]}`},
		{"/v1/datasets/m/deltas", `{"deltas":[{"op":"insert","row":[0.5,0.5]},{"op":"insert","row":` + row + `}]}`},
	}
}

// TestBodyValidationNullAndNonJSONNumbers: a null coordinate or row, a
// number outside JSON's grammar or float64's range, and a non-number in a
// row are a 400 with a JSON error body on every route that reads rows —
// encoding/json alone would serve a null as 0 or as an empty row — and a
// rejected delta batch leaves the maintained skyline's generation as it
// was.
func TestBodyValidationNullAndNonJSONNumbers(t *testing.T) {
	ts := newTestServer(t, mrskyline.ServiceConfig{Nodes: 2})
	if code, raw := postJSON(t, ts.URL+"/v1/datasets", map[string]any{"name": "m", "data": [][]float64{{0.5, 0.5}}, "maintain": true}); code != http.StatusOK {
		t.Fatalf("registration: status %d: %s", code, raw)
	}
	for _, hr := range hostileRows {
		for _, tc := range hostileBodies(hr.row) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var body struct{ Error string }
			decErr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || decErr != nil || body.Error == "" {
				t.Errorf("%s on %s: status %d, error %q (%v), want a 400 with a JSON error", hr.name, tc.path, resp.StatusCode, body.Error, decErr)
			}
		}
	}
	// A matrix error names the row and the column.
	code, raw := postJSON(t, ts.URL+"/v1/skyline", json.RawMessage(`{"data":[[1,2],[0.5,0.5],[1,null]]}`))
	if code != http.StatusBadRequest || !bytes.Contains(raw, []byte(`\"data\"[2][1]: null is not a number`)) {
		t.Errorf("null element: status %d: %s, want a 400 naming \"data\"[2][1]", code, raw)
	}

	resp, err := http.Get(ts.URL + "/v1/datasets/m/skyline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Gen     uint64
		Skyline [][]float64
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Gen != 1 || !reflect.DeepEqual(snap.Skyline, [][]float64{{0.5, 0.5}}) {
		t.Errorf("maintained skyline after rejected deltas = gen %d %v, want gen 1 [[0.5 0.5]]", snap.Gen, snap.Skyline)
	}
	if code, raw := postJSON(t, ts.URL+"/v1/skyline", map[string]any{"dataset": "v"}); code != http.StatusNotFound {
		t.Errorf("a rejected registration registered: status %d: %s", code, raw)
	}
}

// TestDecodeBodyRows: the row reader's decode of legal matrices, on the
// cases the stdlib's rules decide — a folded or escaped key, duplicate
// members, null and [] — and floats at the edges of the format.
func TestDecodeBodyRows(t *testing.T) {
	for _, tc := range []struct {
		body string
		want [][]float64
	}{
		{`{"data":[[1,2],[3,4]]}`, [][]float64{{1, 2}, {3, 4}}},
		{`{"DATA":[[1]]}`, [][]float64{{1}}},
		{`{"d\u0061tA":[[1]]}`, [][]float64{{1}}},
		{`{"data":[[1]],"Data":[[2,3]]}`, [][]float64{{2, 3}}},
		{`{"data":[[1]],"data":null}`, nil},
		{`{"data":null,"data":[]}`, [][]float64{}},
		{`{"data":[[],[]]}`, [][]float64{{}, {}}},
		{` { "data" : [ [ -0 , 5e-324 ] , [ 1.7976931348623157e308 , 1E+2 ] ] } `, [][]float64{{math.Copysign(0, -1), 5e-324}, {math.MaxFloat64, 100}}},
		{`{"dataset":"x","algorithm":"MR-BNL"}`, nil},
	} {
		var got, ref queryRequest
		if err := decodeBytes([]byte(tc.body), &got); err != nil {
			t.Errorf("%s: %v", tc.body, err)
			continue
		}
		if err := referenceDecode([]byte(tc.body), &ref); err != nil {
			t.Fatalf("%s: reference: %v", tc.body, err)
		}
		if !sameRows(got.Data, tc.want) || !sameRows(got.Data, ref.Data) || !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: decoded %v, reference %v, want %v", tc.body, got.Data, ref.Data, tc.want)
		}
	}
}

// sameRows reports whether a and b hold the same rows, bit for bit, with
// nil and empty told apart as reflect.DeepEqual tells them.
func sameRows(a, b [][]float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// FuzzDecodeBodyMatchesStdlib: on any bytes, decoded as a query and as a
// registration, decodeBody and encoding/json (referenceDecode) both fail
// or both succeed with equal values and bit-identical rows. The one
// exception is a "data" matrix holding null, which only decodeBody
// rejects.
func FuzzDecodeBodyMatchesStdlib(f *testing.F) {
	for _, hr := range hostileRows {
		for _, tc := range hostileBodies(hr.row) {
			f.Add([]byte(tc.body))
		}
	}
	for _, s := range []string{
		`{"data":[[1,2],[2,1]]}`,
		`{"DATA":[[1,2]]}`,
		`{"Data":[[1]],"data":[[2,3],[4,5]]}`,
		`{"data":[[1]],"DATA":null}`,
		`{"data":[],"data":[[1]],"data":[]}`,
		`{"d\u0061ta":[[1]],"dataset":"x"}`,
		`{"data":[[-0,5e-324,1.7976931348623157e308,1E+2,1e-400]]}`,
		" {\t\"data\"\n:\r[ [ -0 ,\t5e-324 ] ,\n[ 1.7976931348623157e308 , 1E+2 ] ]\r,\"name\" : \"n\" } \n",
		`{"name":"x","data":[[0.1,0.2]],"maintain":true,"maximize":[true,false]}`,
		`{"name":"g","generate":{"distribution":"independent","card":3,"dim":2,"seed":1}}`,
		`{"data":[[1,2]],"constraints":[{"min":-0,"max":1e2}],"dims":[0]}`,
		`{"data":[[1,2]]} {"maximize":[true,true]}`,
		`{"data":[[1,2]],"bogus":1}`,
		`{"data":[[1,2]]`,
		`{"data":"x"}`,
		`{"x":"\"data\":[[1]]","data":[[2]]}`,
		`null`,
		`[[1,2]]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, mk := range []func() any{
			func() any { return new(queryRequest) },
			func() any { return new(datasetRequest) },
		} {
			got, ref := mk(), mk()
			err, refErr := decodeBytes(body, got), referenceDecode(body, ref)
			switch {
			case err != nil && refErr != nil:
			case err != nil:
				if _, _, _, liftErr := liftRows(body); !errors.Is(liftErr, errNull) {
					t.Fatalf("%T from %q: decodeBody fails (%v), encoding/json decodes %+v", got, body, err, ref)
				}
			case refErr != nil:
				t.Fatalf("%T from %q: decodeBody decodes %+v, encoding/json fails (%v)", got, body, got, refErr)
			default:
				if !reflect.DeepEqual(got, ref) || !sameRows(rowsOf(got), rowsOf(ref)) {
					t.Fatalf("%T from %q: decodeBody %+v, encoding/json %+v", got, body, got, ref)
				}
			}
		}
	})
}

func rowsOf(v any) [][]float64 {
	switch v := v.(type) {
	case *queryRequest:
		return v.Data
	case *datasetRequest:
		return v.Data
	}
	panic(fmt.Sprintf("%T", v))
}

// registrationBody is a POST /v1/datasets body of n rows of 4 coordinates
// as a client's JSON encoder writes them.
func registrationBody(tb testing.TB, n int) []byte {
	tb.Helper()
	rows, err := mrskyline.Generate("independent", n, 4, 7)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"name": "catalog", "data": rows})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestDecodeBodyAllocs: decoding a registration costs the same number of
// allocations at 100 and at 100 000 rows, up to the steps by which
// io.ReadAll grows the body buffer (≈ 1.25× a step), and the decoded rows
// hold no more memory than their values and row headers: one exactly
// sized block, not a row per allocation or a block with room to spare.
func TestDecodeBodyAllocs(t *testing.T) {
	body := registrationBody(t, 100_000)
	var req datasetRequest
	held := heldBy(func() {
		if err := decodeBytes(body, &req); err != nil {
			t.Fatal(err)
		}
	})
	runtime.KeepAlive(body)
	runtime.KeepAlive(&req)
	t.Logf("100 000 decoded rows of 4 hold %d bytes", held)
	if want := uint64(100_000 * (4*8 + 24)); held > want+64<<10 {
		t.Errorf("100 000 decoded rows of 4 hold %d bytes, want %d: the block is not exactly sized", held, want)
	}

	allocs := func(n int) (float64, [][]float64) {
		body := registrationBody(t, n)
		var req datasetRequest
		s := &server{maxBody: maxBodyBytes}
		rd := bytes.NewReader(body)
		r := httptest.NewRequest(http.MethodPost, "/v1/datasets", io.NopCloser(rd))
		w := httptest.NewRecorder()
		a := testing.AllocsPerRun(2, func() {
			rd.Reset(body)
			req = datasetRequest{}
			if err := s.decodeBody(w, r, &req); err != nil {
				t.Fatal(err)
			}
		})
		return a, req.Data
	}
	small, _ := allocs(100)
	large, rows := allocs(100_000)
	t.Logf("allocations per decode: %v at 100 rows, %v at 100 000", small, large)
	// From a 5 KB to an 8 MB body io.ReadAll takes ≈ 30 more steps.
	if large > small+40 {
		t.Errorf("%v allocations at 100 000 rows, %v at 100: the decode allocates per row", large, small)
	}
	if len(rows) != 100_000 {
		t.Fatalf("decoded %d rows", len(rows))
	}
	for i, row := range rows {
		if cap(row) != len(row) {
			t.Fatalf("row %d has capacity %d for %d values", i, cap(row), len(row))
		}
	}

}

// heldBy returns how many more heap bytes are live after fn than before;
// the caller keeps what fn built, and what fn read, reachable past it.
func heldBy(fn func()) uint64 {
	var before, after runtime.MemStats
	// Two collections: the first only moves sync.Pool contents (such as
	// encoding/json's encoder buffers) to the victim cache.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// BenchmarkDecodeBody decodes a 200 000 × 4 registration body, the
// serve-query catalog's shape, through decodeBody; its stdlib sub-benchmark
// decodes the same body as decodeBody did before the row reader.
func BenchmarkDecodeBody(b *testing.B) {
	body := registrationBody(b, 200_000)
	b.Run("rows", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req datasetRequest
			if err := decodeBytes(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req datasetRequest
			if err := referenceDecode(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
