package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	mrskyline "mrskyline"
)

func newTestServer(t *testing.T, cfg mrskyline.ServiceConfig) *httptest.Server {
	t.Helper()
	svc, err := mrskyline.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(svc, "").handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func decodeQueryResponse(t *testing.T, raw []byte) queryResponse {
	t.Helper()
	var qr queryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatalf("bad query response %s: %v", raw, err)
	}
	return qr
}

func TestSkylineEndpoint(t *testing.T) {
	ts := newTestServer(t, mrskyline.ServiceConfig{Nodes: 2})
	code, raw := postJSON(t, ts.URL+"/v1/skyline", map[string]any{
		"data":      [][]float64{{1, 2}, {2, 1}, {2, 2}},
		"algorithm": "MR-GPSRS",
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	qr := decodeQueryResponse(t, raw)
	if len(qr.Skyline) != 2 {
		t.Errorf("skyline = %v, want 2 tuples", qr.Skyline)
	}
	if qr.Stats.Algorithm != "MR-GPSRS" {
		t.Errorf("algorithm = %q", qr.Stats.Algorithm)
	}
}

func TestConstrainedEndpoint(t *testing.T) {
	ts := newTestServer(t, mrskyline.ServiceConfig{Nodes: 2})
	low := 0.3
	code, raw := postJSON(t, ts.URL+"/v1/constrained", map[string]any{
		"data":        [][]float64{{0.1, 0.9}, {0.4, 0.5}, {0.5, 0.4}},
		"constraints": []map[string]any{{"min": low}, {}},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	qr := decodeQueryResponse(t, raw)
	if len(qr.Skyline) != 2 {
		t.Errorf("constrained skyline = %v, want the two in-range tuples", qr.Skyline)
	}
}

func TestSubspaceEndpoint(t *testing.T) {
	ts := newTestServer(t, mrskyline.ServiceConfig{Nodes: 2})
	code, raw := postJSON(t, ts.URL+"/v1/subspace", map[string]any{
		"data": [][]float64{{0.2, 0.3, 0.9}, {0.9, 0.1, 0.1}, {0.3, 0.4, 0.05}},
		"dims": []int{0, 1},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	qr := decodeQueryResponse(t, raw)
	if len(qr.Skyline) != 2 {
		t.Errorf("subspace skyline = %v, want 2 tuples", qr.Skyline)
	}
	for _, row := range qr.Skyline {
		if len(row) != 2 {
			t.Errorf("projected row %v has %d columns, want 2", row, len(row))
		}
	}
}

func TestDatasetCacheRoundTrip(t *testing.T) {
	ts := newTestServer(t, mrskyline.ServiceConfig{Nodes: 2})
	code, raw := postJSON(t, ts.URL+"/v1/datasets", map[string]any{
		"name":     "anti",
		"generate": map[string]any{"distribution": "anticorrelated", "card": 200, "dim": 3, "seed": 7},
	})
	if code != http.StatusOK {
		t.Fatalf("dataset registration: status %d: %s", code, raw)
	}

	code, raw = postJSON(t, ts.URL+"/v1/skyline", map[string]any{"dataset": "anti"})
	if code != http.StatusOK {
		t.Fatalf("query by dataset name: status %d: %s", code, raw)
	}
	if qr := decodeQueryResponse(t, raw); len(qr.Skyline) == 0 {
		t.Error("empty skyline from cached dataset")
	}

	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Datasets []struct {
			Name string `json:"name"`
			Rows int    `json:"rows"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "anti" || list.Datasets[0].Rows != 200 {
		t.Errorf("dataset listing = %+v", list)
	}

	code, raw = postJSON(t, ts.URL+"/v1/skyline", map[string]any{"dataset": "missing"})
	if code != http.StatusNotFound {
		t.Errorf("unknown dataset: status %d: %s", code, raw)
	}
}

// TestDatasetHandleServesNamedQueries: queries that name a registered plain
// dataset run through its Service handle — the bitstring job runs for the
// first of them only — and answer what the same rows sent inline answer;
// /v1/stats keeps listing the engine's and the algorithms' series.
func TestDatasetHandleServesNamedQueries(t *testing.T) {
	ts := newTestServer(t, mrskyline.ServiceConfig{Nodes: 2})
	rows, err := mrskyline.Generate("anticorrelated", 400, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if code, raw := postJSON(t, ts.URL+"/v1/datasets", map[string]any{"name": "d", "data": rows}); code != http.StatusOK {
		t.Fatalf("dataset registration: status %d: %s", code, raw)
	}
	code, raw := postJSON(t, ts.URL+"/v1/skyline", map[string]any{"data": rows})
	if code != http.StatusOK {
		t.Fatalf("inline query: status %d: %s", code, raw)
	}
	want := decodeQueryResponse(t, raw)
	const named = 5
	for i := 0; i < named; i++ {
		code, raw := postJSON(t, ts.URL+"/v1/skyline", map[string]any{"dataset": "d"})
		if code != http.StatusOK {
			t.Fatalf("named query %d: status %d: %s", i, code, raw)
		}
		got := decodeQueryResponse(t, raw)
		got.Stats.Runtime, want.Stats.Runtime = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("named query %d answers %d rows / %+v, inline %d rows / %+v",
				i, len(got.Skyline), got.Stats, len(want.Skyline), want.Stats)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Service struct {
			Admitted int64 `json:"admitted"`
		} `json:"service"`
		Metrics struct {
			Counters, Histograms []struct{ Name string }
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	// Two jobs for the inline query, two for the first named one, one each after.
	if want := int64(2 + 2 + (named - 1)); stats.Service.Admitted != want {
		t.Errorf("admitted = %d, want %d", stats.Service.Admitted, want)
	}
	listed := map[string]bool{}
	for _, m := range append(stats.Metrics.Counters, stats.Metrics.Histograms...) {
		listed[m.Name] = true
	}
	for _, name := range []string{"mr.queue.admitted", "algo.dominance.tests", "algo.merge.ns"} {
		if !listed[name] {
			t.Errorf("/v1/stats does not list %s", name)
		}
	}
}

func TestErrorMapping(t *testing.T) {
	ts := newTestServer(t, mrskyline.ServiceConfig{Nodes: 2})
	cases := []struct {
		name string
		path string
		body map[string]any
		want int
	}{
		{"unknown algorithm", "/v1/skyline", map[string]any{"data": [][]float64{}, "algorithm": "nope"}, http.StatusBadRequest},
		{"unknown kernel on empty data", "/v1/skyline", map[string]any{"kernel": "quantum"}, http.StatusBadRequest},
		{"missing constraints", "/v1/constrained", map[string]any{"data": [][]float64{{1, 2}}}, http.StatusBadRequest},
		{"duplicate dims", "/v1/subspace", map[string]any{"data": [][]float64{{1, 2}}, "dims": []int{0, 0}}, http.StatusBadRequest},
		// NaN is not expressible in JSON, so exercise the pre-filter row
		// validation with its other trigger: a ragged row.
		{"invalid row", "/v1/constrained", map[string]any{"dataset": "badrows", "constraints": []map[string]any{{}, {}}}, http.StatusBadRequest},
	}
	code, raw := postJSON(t, ts.URL+"/v1/datasets", map[string]any{
		"name": "badrows",
		"data": [][]float64{{1, 2}, {3}},
	})
	if code != http.StatusOK {
		t.Fatalf("dataset registration: status %d: %s", code, raw)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := postJSON(t, ts.URL+tc.path, tc.body)
			if code != tc.want {
				t.Errorf("status = %d, want %d (%s)", code, tc.want, raw)
			}
		})
	}
	if resp, err := http.Get(ts.URL + "/v1/skyline"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET on query endpoint: status %d", resp.StatusCode)
		}
	}
}

// TestFieldIgnoredIsBadRequest: a field the route does not read is a 400,
// not dropped ("maximize" dropped from a plain registration would serve the
// min-skyline), and so is a field no route reads (a misspelled "maximize"
// would too); without it the request succeeds.
func TestFieldIgnoredIsBadRequest(t *testing.T) {
	ts := newTestServer(t, mrskyline.ServiceConfig{Nodes: 2})
	data := [][]float64{{1, 2}, {2, 1}, {3, 3}}
	box := []map[string]any{{}, {}}
	for _, tc := range []struct {
		path, stray string
		body        map[string]any
	}{
		{"/v1/skyline", "constraints", map[string]any{"data": data, "constraints": box}},
		{"/v1/skyline", "dims", map[string]any{"data": data, "dims": []int{}}},
		{"/v1/constrained", "dims", map[string]any{"data": data, "constraints": box, "dims": []int{0}}},
		{"/v1/subspace", "constraints", map[string]any{"data": data, "dims": []int{0}, "constraints": box}},
		{"/v1/datasets", "maximize", map[string]any{"name": "x", "data": data, "maximize": []bool{true, true}}},
		{"/v1/skyline", "maximise", map[string]any{"data": data, "maximise": []bool{true, true}}},
		{"/v1/skyline", "algoritm", map[string]any{"data": data, "algoritm": "MR-BNL"}},
		{"/v1/datasets", "mantain", map[string]any{"name": "y", "data": data, "mantain": true}},
	} {
		if code, raw := postJSON(t, ts.URL+tc.path, tc.body); code != http.StatusBadRequest || !bytes.Contains(raw, []byte(tc.stray)) {
			t.Errorf("%s with %q: status %d (%s), want a 400 naming the field", tc.path, tc.stray, code, raw)
		}
		delete(tc.body, tc.stray)
		if code, raw := postJSON(t, ts.URL+tc.path, tc.body); code != http.StatusOK {
			t.Errorf("%s without %q: status %d (%s), want 200", tc.path, tc.stray, code, raw)
		}
	}
	// A maintained registration reads "maximize": its skyline is [[3 3]].
	body := map[string]any{"name": "m", "data": data, "maintain": true, "maximize": []bool{true, true}}
	if code, raw := postJSON(t, ts.URL+"/v1/datasets", body); code != http.StatusOK || !bytes.Contains(raw, []byte(`"skyline_size":1`)) {
		t.Errorf("maintained registration with maximize: status %d: %s", code, raw)
	}
}

// TestBodyValidationRejectsTrailingData: a body is one JSON value. What
// follows it, other than white space, is a 400 rather than dropped: a
// second object carrying "maximize" would otherwise serve the min-skyline.
func TestBodyValidationRejectsTrailingData(t *testing.T) {
	ts := newTestServer(t, mrskyline.ServiceConfig{Nodes: 2})
	const body = `{"data":[[1,2],[2,1],[3,3]]}`
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"trailing object", "/v1/skyline", body + ` {"maximize":[true,true]}`, http.StatusBadRequest},
		{"trailing garbage", "/v1/skyline", body + ` garbage`, http.StatusBadRequest},
		{"second array", "/v1/skyline", body + `[[4,4]]`, http.StatusBadRequest},
		{"trailing object on registration", "/v1/datasets", `{"name":"t","data":[[1,2]]}{"maintain":true}`, http.StatusBadRequest},
		{"trailing newline", "/v1/skyline", body + "\n", http.StatusOK},
		{"trailing white space", "/v1/skyline", body + " \r\n\t ", http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, raw, tc.want)
		}
	}
}

// TestBodyValidationHostileBodies: a body over the server's cap is a 413
// with the JSON error body, on every route that reads one, and so is one
// whose value fits but whose trailing bytes do not; a truncated or too
// deeply nested body is a 400. A body of exactly the cap is served.
func TestBodyValidationHostileBodies(t *testing.T) {
	svc, err := mrskyline.NewService(mrskyline.ServiceConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(svc, "")
	if srv.maxBody != 256<<20 {
		t.Errorf("default body cap %d bytes, want 256 MiB", srv.maxBody)
	}
	const limit = 64 << 10
	srv.maxBody = limit
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	if code, raw := postJSON(t, ts.URL+"/v1/datasets", map[string]any{"name": "m", "data": [][]float64{{1, 2}}, "maintain": true}); code != http.StatusOK {
		t.Fatalf("registration: status %d: %s", code, raw)
	}

	big := `{"data":[` + strings.Repeat("[0.5,0.5],", limit/10) + `[1,1]]}`
	const small = `{"data":[[1,2],[2,1]]}`
	nested := `{"data":` + strings.Repeat("[", 20000) + strings.Repeat("]", 20000) + `}`
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"oversized query", "/v1/skyline", big, http.StatusRequestEntityTooLarge},
		{"oversized constrained", "/v1/constrained", big, http.StatusRequestEntityTooLarge},
		{"oversized registration", "/v1/datasets", `{"name":"b",` + big[1:], http.StatusRequestEntityTooLarge},
		{"oversized deltas", "/v1/datasets/m/deltas", `{"deltas":[` + strings.Repeat(`{"op":"insert","row":[0.5,0.5]},`, limit/30) + `{"op":"insert","row":[1,1]}]}`, http.StatusRequestEntityTooLarge},
		{"oversized trailing space", "/v1/skyline", small + strings.Repeat(" ", limit), http.StatusRequestEntityTooLarge},
		{"exactly the cap", "/v1/skyline", small + strings.Repeat(" ", limit-len(small)), http.StatusOK},
		{"truncated", "/v1/skyline", big[:1000], http.StatusBadRequest},
		{"truncated mid-number", "/v1/skyline", `{"data":[[1,2],[2,1.`, http.StatusBadRequest},
		{"truncated deltas", "/v1/datasets/m/deltas", `{"deltas":[{"op":"insert","row":[1`, http.StatusBadRequest},
		{"deeply nested", "/v1/skyline", nested, http.StatusBadRequest},
		{"deeply nested registration", "/v1/datasets", `{"name":"n","data":` + nested[len(`{"data":`):], http.StatusBadRequest},
	} {
		if len(tc.body) > limit == (tc.want != http.StatusRequestEntityTooLarge) {
			t.Fatalf("%s: a %d-byte body against a %d-byte cap cannot test status %d", tc.name, len(tc.body), limit, tc.want)
		}
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Error string }
		decErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%q), want %d", tc.name, resp.StatusCode, body.Error, tc.want)
		}
		if tc.want != http.StatusOK && (decErr != nil || body.Error == "") {
			t.Errorf("%s: error body %q (%v), want a JSON error", tc.name, body.Error, decErr)
		}
	}
}

// TestConcurrentHTTPQueries is the serving acceptance check: 32
// concurrent HTTP queries against one server, zero errors.
func TestConcurrentHTTPQueries(t *testing.T) {
	ts := newTestServer(t, mrskyline.ServiceConfig{Nodes: 2, MaxInFlight: 4, MaxQueue: 64})
	code, raw := postJSON(t, ts.URL+"/v1/datasets", map[string]any{
		"name":     "load",
		"generate": map[string]any{"distribution": "independent", "card": 300, "dim": 3, "seed": 42},
	})
	if code != http.StatusOK {
		t.Fatalf("dataset registration: status %d: %s", code, raw)
	}

	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var (
				path string
				body map[string]any
			)
			switch i % 3 {
			case 0:
				path, body = "/v1/skyline", map[string]any{"dataset": "load"}
			case 1:
				path, body = "/v1/constrained", map[string]any{
					"dataset":     "load",
					"constraints": []map[string]any{{"min": 0.1}, {}, {}},
				}
			default:
				path, body = "/v1/subspace", map[string]any{"dataset": "load", "dims": []int{0, 2}}
			}
			rawBody, _ := json.Marshal(body)
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(rawBody))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("query %d: status %d: %s", i, resp.StatusCode, out)
				return
			}
			var qr queryResponse
			if err := json.Unmarshal(out, &qr); err != nil {
				errs <- fmt.Errorf("query %d: bad body: %v", i, err)
				return
			}
			if len(qr.Skyline) == 0 {
				errs <- fmt.Errorf("query %d: empty skyline", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// /v1/stats reflects the served load.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Service struct {
			Admitted int64 `json:"admitted"`
			InFlight int   `json:"in_flight"`
		} `json:"service"`
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Service.Admitted < n {
		t.Errorf("admitted = %d, want ≥ %d", stats.Service.Admitted, n)
	}
	if len(stats.Metrics) == 0 {
		t.Error("stats response lacks metrics registry")
	}
}

// TestMaintainedDatasetEndpoints exercises the maintained-dataset flow
// end to end: register with "maintain": true, push deltas, poll the
// skyline with since_gen, and query the live residents by name.
func TestMaintainedDatasetEndpoints(t *testing.T) {
	ts := newTestServer(t, mrskyline.ServiceConfig{Nodes: 2})
	code, raw := postJSON(t, ts.URL+"/v1/datasets", map[string]any{
		"name":     "live",
		"maintain": true,
		"generate": map[string]any{"distribution": "independent", "card": 200, "dim": 2, "seed": 5},
	})
	if code != http.StatusOK {
		t.Fatalf("maintained registration: status %d: %s", code, raw)
	}
	var reg struct {
		Maintained  bool   `json:"maintained"`
		Gen         uint64 `json:"gen"`
		SkylineSize int    `json:"skyline_size"`
		Rows        int    `json:"rows"`
	}
	if err := json.Unmarshal(raw, &reg); err != nil {
		t.Fatal(err)
	}
	if !reg.Maintained || reg.Gen != 1 || reg.Rows != 200 || reg.SkylineSize == 0 {
		t.Fatalf("registration response = %+v", reg)
	}

	// Full read, then a cheap no-change poll against the same generation.
	var snap struct {
		Gen     uint64      `json:"gen"`
		Changed bool        `json:"changed"`
		Skyline [][]float64 `json:"skyline"`
	}
	getSkyline := func(query string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/datasets/live/skyline" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET skyline%s: status %d", query, resp.StatusCode)
		}
		snap = struct {
			Gen     uint64      `json:"gen"`
			Changed bool        `json:"changed"`
			Skyline [][]float64 `json:"skyline"`
		}{}
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
	}
	getSkyline("")
	if !snap.Changed || snap.Gen != 1 || len(snap.Skyline) != reg.SkylineSize {
		t.Fatalf("initial skyline read = %+v", snap)
	}
	getSkyline("?since_gen=1")
	if snap.Changed || snap.Gen != 1 || snap.Skyline != nil {
		t.Fatalf("no-change poll = %+v, want changed=false with no rows", snap)
	}

	// A delta batch advances the generation; the stale cursor sees it.
	code, raw = postJSON(t, ts.URL+"/v1/datasets/live/deltas", map[string]any{
		"deltas": []map[string]any{
			{"op": "insert", "row": []float64{0.001, 0.001}},
			{"op": "insert", "row": []float64{0.999, 0.999}},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("deltas: status %d: %s", code, raw)
	}
	var dres struct {
		Inserted int    `json:"inserted"`
		Gen      uint64 `json:"gen"`
	}
	if err := json.Unmarshal(raw, &dres); err != nil {
		t.Fatal(err)
	}
	if dres.Inserted != 2 || dres.Gen != 2 {
		t.Fatalf("delta result = %+v", dres)
	}
	getSkyline("?since_gen=1")
	if !snap.Changed || snap.Gen != 2 {
		t.Fatalf("stale poll after deltas = %+v", snap)
	}
	// {0.001, 0.001} dominates (nearly) everything.
	found := false
	for _, row := range snap.Skyline {
		if row[0] == 0.001 && row[1] == 0.001 {
			found = true
		}
	}
	if !found {
		t.Errorf("inserted dominator missing from maintained skyline %v", snap.Skyline)
	}

	// Regular query endpoints see the maintained dataset's live residents.
	code, raw = postJSON(t, ts.URL+"/v1/skyline", map[string]any{"dataset": "live"})
	if code != http.StatusOK {
		t.Fatalf("query maintained dataset: status %d: %s", code, raw)
	}
	qr := decodeQueryResponse(t, raw)
	if len(qr.Skyline) != len(snap.Skyline) {
		t.Errorf("recompute over residents = %d rows, maintained = %d", len(qr.Skyline), len(snap.Skyline))
	}

	// The dataset listing reports maintenance state and generation.
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Datasets []struct {
			Name       string `json:"name"`
			Rows       int    `json:"rows"`
			Maintained bool   `json:"maintained"`
			Gen        uint64 `json:"gen"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 1 || !list.Datasets[0].Maintained || list.Datasets[0].Gen != 2 || list.Datasets[0].Rows != 202 {
		t.Errorf("dataset listing = %+v", list)
	}
}

func TestMaintainedEndpointErrors(t *testing.T) {
	ts := newTestServer(t, mrskyline.ServiceConfig{Nodes: 2})
	code, raw := postJSON(t, ts.URL+"/v1/datasets", map[string]any{
		"name": "plain",
		"data": [][]float64{{1, 2}, {2, 1}},
	})
	if code != http.StatusOK {
		t.Fatalf("plain registration: status %d: %s", code, raw)
	}

	// Deltas against an unknown dataset: 404. Against a plain one: 409.
	code, _ = postJSON(t, ts.URL+"/v1/datasets/nope/deltas", map[string]any{
		"deltas": []map[string]any{{"op": "insert", "row": []float64{1, 1}}},
	})
	if code != http.StatusNotFound {
		t.Errorf("unknown dataset deltas: status %d, want 404", code)
	}
	code, _ = postJSON(t, ts.URL+"/v1/datasets/plain/deltas", map[string]any{
		"deltas": []map[string]any{{"op": "insert", "row": []float64{1, 1}}},
	})
	if code != http.StatusConflict {
		t.Errorf("non-maintained deltas: status %d, want 409", code)
	}
	if resp, err := http.Get(ts.URL + "/v1/datasets/plain/skyline"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("non-maintained skyline read: status %d, want 409", resp.StatusCode)
		}
	}

	// Maintained tuning fields without "maintain": true are rejected.
	code, _ = postJSON(t, ts.URL+"/v1/datasets", map[string]any{
		"name":         "tuned",
		"data":         [][]float64{{1, 2}},
		"maintain_ppd": 4,
	})
	if code != http.StatusBadRequest {
		t.Errorf("tuning without maintain: status %d, want 400", code)
	}

	code, raw = postJSON(t, ts.URL+"/v1/datasets", map[string]any{
		"name":     "live",
		"maintain": true,
		"data":     [][]float64{{0.5, 0.5}},
	})
	if code != http.StatusOK {
		t.Fatalf("maintained registration: status %d: %s", code, raw)
	}
	// Empty delta batches and unknown ops are 400s.
	code, _ = postJSON(t, ts.URL+"/v1/datasets/live/deltas", map[string]any{"deltas": []map[string]any{}})
	if code != http.StatusBadRequest {
		t.Errorf("empty delta batch: status %d, want 400", code)
	}
	code, _ = postJSON(t, ts.URL+"/v1/datasets/live/deltas", map[string]any{
		"deltas": []map[string]any{{"op": "upsert", "row": []float64{1, 1}}},
	})
	if code != http.StatusBadRequest {
		t.Errorf("unknown op: status %d, want 400", code)
	}
	// Malformed since_gen is a 400.
	if resp, err := http.Get(ts.URL + "/v1/datasets/live/skyline?since_gen=banana"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad since_gen: status %d, want 400", resp.StatusCode)
		}
	}
}
