package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	mrskyline "mrskyline"
)

// referenceEncode is a changed poll's body as skylined wrote it before a
// generation's text was kept: the map through encoding/json.
func referenceEncode(tb testing.TB, snap *mrskyline.MaintainedSnapshot) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"gen": snap.Gen, "changed": true, "skyline": snap.Skyline}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// getBody GETs url and returns the status and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// walkRow is a row on the plane x + y − z ≈ 0 (z maximized), so that much
// of a walk's data is skyline.
func walkRow(rng *rand.Rand) []float64 {
	x, y := rng.Float64(), rng.Float64()
	return []float64{x, y, x + y + rng.Float64()*0.05}
}

// specialRows are rows every batch of the walk inserts: each holds a value
// whose text is an edge of encoding/json's float rule, placed so that the
// row survives into the skyline. The ±0 twins have equal coordinates and
// different bits.
func specialRows(rng *rand.Rand) [][]float64 {
	r := rng.Float64
	return [][]float64{
		{math.Copysign(0, -1), 0.9 + r()*0.1, r() * 0.1},
		{0, 0.9 + r()*0.1, r() * 0.1},
		{5e-324, 0.8 + r()*0.1, r() * 0.1},
		{1e-7, 0.7 + r()*0.1, r() * 0.1},
		{0.99 + r()*0.005, 0.99 + r()*0.005, 1e21},
		{0.999, 0.9999, math.MaxFloat64},
	}
}

// TestMaintainedSkylineBodyMatchesStdlib walks seeded delta batches through
// the HTTP handler over a maintained skyline with one maximized dimension.
// Every batch inserts the edge values of encoding/json's float rule and
// duplicate rows; one batch empties the skyline. Every changed body, with
// and without since_gen, and every unchanged one equals encoding/json's
// bytes for the handle's skyline; concurrent pollers of a new generation
// all get those bytes.
func TestMaintainedSkylineBodyMatchesStdlib(t *testing.T) {
	svc, err := mrskyline.NewService(mrskyline.ServiceConfig{Nodes: 2, SlotsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := newServer(svc, "")
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	const batches, emptyAt, pollers = 10, 5, 4
	seen := map[string]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		name := fmt.Sprintf("walk%d", seed)
		live := make([][]float64, 300)
		for i := range live {
			live[i] = walkRow(rng)
		}
		if code, raw := postJSON(t, ts.URL+"/v1/datasets", map[string]any{
			"name": name, "data": live, "maintain": true, "maximize": []bool{false, false, true},
		}); code != http.StatusOK {
			t.Fatalf("register: %d %s", code, raw)
		}
		srv.mu.RLock()
		h := srv.datasets[name].maint
		srv.mu.RUnlock()
		url := ts.URL + "/v1/datasets/" + name + "/skyline"
		for batch := 0; batch < batches; batch++ {
			var deltas []mrskyline.Delta
			del := rng.Intn(len(live)/4 + 1)
			if batch == emptyAt {
				del = len(live)
			}
			for i := 0; i < del; i++ {
				j := rng.Intn(len(live))
				deltas = append(deltas, mrskyline.Delta{Op: mrskyline.DeltaDelete, Row: live[j]})
				live = slices.Delete(live, j, j+1)
			}
			if batch != emptyAt {
				ins := specialRows(rng)
				for i := 0; i < 20; i++ {
					ins = append(ins, walkRow(rng))
				}
				ins = append(ins, ins[2], ins[len(ins)-1])
				for _, row := range ins {
					deltas = append(deltas, mrskyline.Delta{Op: mrskyline.DeltaInsert, Row: row})
				}
				live = append(live, ins...)
			}
			prev := h.Generation()
			if code, raw := postJSON(t, ts.URL+"/v1/datasets/"+name+"/deltas", map[string]any{"deltas": deltas}); code != http.StatusOK {
				t.Fatalf("batch %d: %d %s", batch, code, raw)
			}

			// The new generation's first readers arrive together.
			bodies := make([][]byte, pollers)
			var wg sync.WaitGroup
			start := make(chan struct{})
			for i := range bodies {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					resp, err := http.Get(url + "?since_gen=" + strconv.FormatUint(prev, 10))
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					bodies[i], _ = io.ReadAll(resp.Body)
				}(i)
			}
			close(start)
			wg.Wait()

			want := referenceEncode(t, h.Skyline())
			for i, body := range bodies {
				if !bytes.Equal(body, want) {
					t.Fatalf("%s batch %d: concurrent poller %d got\n%s\nwant\n%s", name, batch, i, body, want)
				}
			}
			for _, query := range []string{"", "?since_gen=" + strconv.FormatUint(prev, 10), "?since_gen=0"} {
				if code, body := getBody(t, url+query); code != http.StatusOK || !bytes.Equal(body, want) {
					t.Fatalf("%s batch %d: GET skyline%s = %d\n%s\nwant\n%s", name, batch, query, code, body, want)
				}
			}
			cur := h.Generation()
			unchanged, err := json.Marshal(map[string]any{"gen": cur, "changed": false})
			if err != nil {
				t.Fatal(err)
			}
			if code, body := getBody(t, url+"?since_gen="+strconv.FormatUint(cur, 10)); code != http.StatusOK || string(body) != string(unchanged)+"\n" {
				t.Fatalf("%s batch %d: unchanged poll = %d %q, want %q", name, batch, code, body, unchanged)
			}
			if batch == emptyAt && !bytes.HasSuffix(want, []byte(`"skyline":[]}`+"\n")) {
				t.Fatalf("%s batch %d deleted every row, skyline body %s", name, batch, want)
			}
			for _, text := range []string{"[-0,", "[0,", "5e-324", "1e-7", "1e+21", "1.7976931348623157e+308"} {
				if bytes.Contains(want, []byte(text)) {
					seen[text] = true
				}
			}
		}
	}
	for _, text := range []string{"[-0,", "[0,", "5e-324", "1e-7", "1e+21", "1.7976931348623157e+308"} {
		if !seen[text] {
			t.Errorf("no skyline body held %s: the walk does not reach that edge", text)
		}
	}
}

// TestMaintainedTextLifecycle: a maintained dataset's text lives and dies
// with its registry entry. A name registered anew — after a DELETE, over a
// plain dataset that replaced it, or across a -datadir restart — is at
// generation 1 again, and a poll serves its new rows, never the text built
// for the rows the name held before.
func TestMaintainedTextLifecycle(t *testing.T) {
	svc, err := mrskyline.NewService(mrskyline.ServiceConfig{Nodes: 2, SlotsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// Every row of each set is skyline, so a poll's rows are the set.
	rowsA := [][]float64{{1, 4}, {2, 3}, {3, 2}}
	rowsB := [][]float64{{5, 9}, {6, 8}}
	rowsC := [][]float64{{0.5, 0.5}}

	register := func(ts *httptest.Server, rows [][]float64, maintain bool) {
		t.Helper()
		if code, raw := postJSON(t, ts.URL+"/v1/datasets", map[string]any{"name": "m", "data": rows, "maintain": maintain}); code != http.StatusOK {
			t.Fatalf("register m (maintain %t): %d %s", maintain, code, raw)
		}
	}
	del := func(ts *httptest.Server) {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/m", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE m: %d", resp.StatusCode)
		}
	}
	poll := func(ts *httptest.Server, want [][]float64) {
		t.Helper()
		code, body := getBody(t, ts.URL+"/v1/datasets/m/skyline?since_gen=0")
		if code != http.StatusOK {
			t.Fatalf("poll m: %d %s", code, body)
		}
		var got struct {
			Gen     uint64      `json:"gen"`
			Skyline [][]float64 `json:"skyline"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(got.Skyline, func(a, b []float64) int { return slices.Compare(a, b) })
		if got.Gen != 1 || fmt.Sprint(got.Skyline) != fmt.Sprint(want) {
			t.Fatalf("poll m = gen %d %v, want gen 1 %v", got.Gen, got.Skyline, want)
		}
	}

	mem := httptest.NewServer(newServer(svc, "").handler())
	defer mem.Close()
	register(mem, rowsA, true)
	poll(mem, rowsA)
	del(mem)
	register(mem, rowsB, true)
	poll(mem, rowsB)
	// A plain dataset replaces a memory-only maintained one in place.
	register(mem, rowsA, false)
	if code, body := getBody(t, mem.URL+"/v1/datasets/m/skyline"); code != http.StatusConflict {
		t.Fatalf("poll of plain m: %d %s, want 409", code, body)
	}
	register(mem, rowsC, true)
	poll(mem, rowsC)

	dataDir := t.TempDir()
	first := newServer(svc, dataDir)
	ts := httptest.NewServer(first.handler())
	register(ts, rowsA, true)
	poll(ts, rowsA)
	del(ts)
	register(ts, rowsB, true)
	poll(ts, rowsB)
	ts.Close()
	first.closeDatasets()

	restarted := newServer(svc, dataDir)
	if err := restarted.restoreDatasets(); err != nil {
		t.Fatal(err)
	}
	defer restarted.closeDatasets()
	ts = httptest.NewServer(restarted.handler())
	defer ts.Close()
	poll(ts, rowsB)
	del(ts)
	register(ts, rowsA, true)
	poll(ts, rowsA)
}

// TestSkylineTextReusesRows: a generation's text copies the previous
// generation's text for every row whose bits it holds, and formats the
// rest — a −0 where the previous text held 0 among them.
func TestSkylineTextReusesRows(t *testing.T) {
	negZero := math.Copysign(0, -1)
	first := (*skylineText)(nil).next(&mrskyline.MaintainedSnapshot{Gen: 1, Skyline: [][]float64{{0, 1}, {0.5, 0.5}, {1, 0}}})
	// Poison the first text's rows, so that a copied row shows.
	for _, r := range [][]float64{{0, 1}, {0.5, 0.5}, {1, 0}} {
		j := first.find(r, hashOf(r))
		if j < 0 {
			t.Fatalf("row %v is not found in its own text", r)
		}
		copy(first.body[first.offs[j]:], strings.Repeat("#", first.offs[j+1]-1-first.offs[j]))
	}
	second := first.next(&mrskyline.MaintainedSnapshot{Gen: 2, Skyline: [][]float64{{1, 0}, {negZero, 1}, {0.25, 0.75}, {0.5, 0.5}, {1, 0}}})
	if want := `{"changed":true,"gen":2,"skyline":[#####,[-0,1],[0.25,0.75],#########,#####]}` + "\n"; string(second.body) != want {
		t.Fatalf("second text\n got %s\nwant %s", second.body, want)
	}
	empty := second.next(&mrskyline.MaintainedSnapshot{Gen: 3, Skyline: [][]float64{}})
	if want := `{"changed":true,"gen":3,"skyline":[]}` + "\n"; string(empty.body) != want || empty.find([]float64{1, 0}, hashOf([]float64{1, 0})) != -1 {
		t.Fatalf("empty text %s", empty.body)
	}
}

func hashOf(row []float64) uint64 {
	h, _ := rowHash(row, nil)
	return h
}

// BenchmarkMaintainedPoll builds the body of a changed poll after one
// serve-churn batch (32 deletes, 32 inserts) on an anticorrelated 200 000 × 4
// maintained skyline: /text from the previous generation's text, as
// skylined does, /stdlib through encoding/json (referenceEncode) as before
// the text was kept. Both include taking the snapshot.
func BenchmarkMaintainedPoll(b *testing.B) {
	data, err := mrskyline.Generate("anticorrelated", 200_000, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := mrskyline.Generate("anticorrelated", 96, 4, 107)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := mrskyline.NewService(mrskyline.ServiceConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	h, err := svc.OpenMaintained(data, mrskyline.MaintainOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	apply := func(deltas []mrskyline.Delta) {
		if _, err := h.ApplyDeltas(deltas); err != nil {
			b.Fatal(err)
		}
	}
	var batch []mrskyline.Delta
	for _, row := range pool[:64] {
		batch = append(batch, mrskyline.Delta{Op: mrskyline.DeltaInsert, Row: row})
	}
	apply(batch)
	prev := (*skylineText)(nil).next(h.Skyline())
	batch = batch[:0]
	for _, row := range pool[:32] {
		batch = append(batch, mrskyline.Delta{Op: mrskyline.DeltaDelete, Row: row})
	}
	for _, row := range pool[64:] {
		batch = append(batch, mrskyline.Delta{Op: mrskyline.DeltaInsert, Row: row})
	}
	apply(batch)
	if got, want := prev.next(h.Skyline()).body, referenceEncode(b, h.Skyline()); !bytes.Equal(got, want) {
		b.Fatal("the text differs from encoding/json's")
	}
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prev.next(h.Skyline())
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceEncode(b, h.Skyline())
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
	})
}
