package main

// Process-level durability tests: a real skylined child process (the
// test binary re-executed through TestMain) is restarted gracefully and
// SIGKILLed mid-churn, and the restarted server must republish the exact
// skyline and generation implied by the batches it acknowledged.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	mrskyline "mrskyline"
)

func TestMain(m *testing.M) {
	if argsJSON := os.Getenv("SKYLINED_TEST_ARGS"); argsJSON != "" {
		var args []string
		if err := json.Unmarshal([]byte(argsJSON), &args); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Args = append([]string{"skylined"}, args...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// skylinedProc is one spawned server process.
type skylinedProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
}

// startSkylined spawns the server and waits for its listen line.
func startSkylined(t *testing.T, args ...string) *skylinedProc {
	t.Helper()
	argsJSON, err := json.Marshal(append([]string{"-addr", "127.0.0.1:0", "-nodes", "2", "-slots", "1"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "SKYLINED_TEST_ARGS="+string(argsJSON))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stderr)
	deadline := time.After(30 * time.Second)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr := strings.Fields(line[i+len("listening on "):])[0]
				addrCh <- addr
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &skylinedProc{cmd: cmd, base: "http://" + addr}
	case <-deadline:
		cmd.Process.Kill()
		t.Fatal("skylined child never reported its listen address")
		return nil
	}
}

func (p *skylinedProc) do(t *testing.T, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, p.base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// stop terminates the process with sig and waits for it to exit,
// reporting whether the exit was clean (code 0).
func (p *skylinedProc) stop(t *testing.T, sig syscall.Signal) bool {
	t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	err := p.cmd.Wait()
	return err == nil
}

func testDeltas(n int) [][]mrskyline.Delta {
	out := make([][]mrskyline.Delta, n)
	v := 0.9
	for i := range out {
		v *= 0.93
		out[i] = []mrskyline.Delta{{Op: mrskyline.DeltaInsert, Row: []float64{v, 1 - v, 0.5}}}
	}
	return out
}

var seedData = [][]float64{{0.5, 0.5, 0.5}, {0.9, 0.1, 0.4}, {0.1, 0.9, 0.6}}

func TestSkylinedRestartRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	dataDir := t.TempDir()
	p := startSkylined(t, "-datadir", dataDir)
	code, body := p.do(t, "POST", "/v1/datasets", map[string]any{"name": "churn", "data": seedData, "maintain": true})
	if code != 200 {
		t.Fatalf("register: %d %s", code, body)
	}
	for _, batch := range testDeltas(12) {
		code, body := p.do(t, "POST", "/v1/datasets/churn/deltas", map[string]any{"deltas": batch})
		if code != 200 {
			t.Fatalf("deltas: %d %s", code, body)
		}
	}
	_, want := p.do(t, "GET", "/v1/datasets/churn/skyline", nil)
	if !p.stop(t, syscall.SIGTERM) {
		t.Fatal("graceful shutdown exited non-zero")
	}

	// Same -datadir: the dataset must come back at the same generation
	// with the identical skyline, with no deltas re-sent.
	p2 := startSkylined(t, "-datadir", dataDir)
	code, got := p2.do(t, "GET", "/v1/datasets/churn/skyline", nil)
	if code != 200 {
		t.Fatalf("restored skyline: %d %s", code, got)
	}
	var wantJS, gotJS map[string]any
	if err := json.Unmarshal(want, &wantJS); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &gotJS); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotJS, wantJS) {
		t.Fatalf("restored skyline differs:\n got %s\nwant %s", got, want)
	}
	// And it must still accept churn.
	code, body = p2.do(t, "POST", "/v1/datasets/churn/deltas", map[string]any{"deltas": []mrskyline.Delta{{Op: mrskyline.DeltaInsert, Row: []float64{0.05, 0.05, 0.05}}}})
	if code != 200 {
		t.Fatalf("post-restart deltas: %d %s", code, body)
	}

	// DELETE removes the durable state: a third restart must not see it.
	if code, body := p2.do(t, "DELETE", "/v1/datasets/churn", nil); code != 200 {
		t.Fatalf("delete: %d %s", code, body)
	}
	if code, _ := p2.do(t, "GET", "/v1/datasets/churn/skyline", nil); code != http.StatusNotFound {
		t.Fatalf("skyline after delete: %d, want 404", code)
	}
	if !p2.stop(t, syscall.SIGTERM) {
		t.Fatal("second graceful shutdown exited non-zero")
	}
	p3 := startSkylined(t, "-datadir", dataDir)
	if code, _ := p3.do(t, "GET", "/v1/datasets/churn/skyline", nil); code != http.StatusNotFound {
		t.Fatalf("deleted dataset resurrected after restart: %d", code)
	}
}

func TestSkylinedSigkillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	dataDir := t.TempDir()
	p := startSkylined(t, "-datadir", dataDir, "-walsync", "always", "-checkpointevery", "4")
	if code, body := p.do(t, "POST", "/v1/datasets", map[string]any{"name": "kill", "data": seedData, "maintain": true}); code != 200 {
		t.Fatalf("register: %d %s", code, body)
	}
	batches := testDeltas(10)
	var ackedGen uint64
	for _, batch := range batches {
		code, body := p.do(t, "POST", "/v1/datasets/kill/deltas", map[string]any{"deltas": batch})
		if code != 200 {
			t.Fatalf("deltas: %d %s", code, body)
		}
		var res mrskyline.DeltaResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		ackedGen = res.Gen
	}
	// No grace: the durability contract is that every acknowledged batch
	// above survives a SIGKILL under -walsync=always.
	p.cmd.Process.Kill()
	p.cmd.Wait()

	p2 := startSkylined(t, "-datadir", dataDir)
	code, got := p2.do(t, "GET", "/v1/datasets/kill/skyline", nil)
	if code != 200 {
		t.Fatalf("skyline after SIGKILL restart: %d %s", code, got)
	}
	var snap struct {
		Gen     uint64      `json:"gen"`
		Skyline [][]float64 `json:"skyline"`
	}
	if err := json.Unmarshal(got, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Gen < ackedGen {
		t.Fatalf("recovered generation %d below acknowledged %d", snap.Gen, ackedGen)
	}
	// Differential check: the recovered skyline must equal a fresh rebuild
	// of exactly the batches the recovered generation covers.
	svc, err := mrskyline.NewService(mrskyline.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := svc.OpenMaintained(seedData, mrskyline.MaintainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:snap.Gen-1] {
		if _, err := ref.ApplyDeltas(b); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.Skyline()
	if !reflect.DeepEqual(snap.Skyline, want.Skyline) {
		t.Fatalf("recovered skyline differs from rebuild of %d acknowledged batches:\n got %v\nwant %v", snap.Gen-1, snap.Skyline, want.Skyline)
	}
}

// In-process endpoint satellites: dataset name validation and DELETE.
func TestDatasetNameValidation(t *testing.T) {
	svc, err := mrskyline.NewService(mrskyline.ServiceConfig{Nodes: 2, SlotsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(newServer(svc, t.TempDir()).handler())
	defer ts.Close()
	bad := []string{"", "..", ".", "a/b", `a\b`, "x\x00y", "ctrl\nname", strings.Repeat("n", 200)}
	for _, name := range bad {
		code, body := postJSON(t, ts.URL+"/v1/datasets", map[string]any{"name": name, "data": seedData})
		if code != http.StatusBadRequest {
			t.Fatalf("name %q: %d %s, want 400", name, code, body)
		}
	}
	if code, body := postJSON(t, ts.URL+"/v1/datasets", map[string]any{"name": "ok-name_1.2", "data": seedData}); code != 200 {
		t.Fatalf("valid name rejected: %d %s", code, body)
	}
}

func TestDeleteDataset(t *testing.T) {
	svc, err := mrskyline.NewService(mrskyline.ServiceConfig{Nodes: 2, SlotsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	dataDir := t.TempDir()
	ts := httptest.NewServer(newServer(svc, dataDir).handler())
	defer ts.Close()

	del := func(name string) int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/"+name, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del("ghost"); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown dataset: %d, want 404", code)
	}
	if code, body := postJSON(t, ts.URL+"/v1/datasets", map[string]any{"name": "tmp", "data": seedData, "maintain": true}); code != 200 {
		t.Fatalf("register: %d %s", code, body)
	}
	dsDir := filepath.Join(dataDir, "datasets", "tmp")
	if _, err := os.Stat(dsDir); err != nil {
		t.Fatalf("durable dir missing after registration: %v", err)
	}
	// Re-registering a durable dataset without deleting must 409.
	if code, _ := postJSON(t, ts.URL+"/v1/datasets", map[string]any{"name": "tmp", "data": seedData, "maintain": true}); code != http.StatusConflict {
		t.Fatalf("durable re-register: %d, want 409", code)
	}
	if code := del("tmp"); code != 200 {
		t.Fatalf("DELETE: %d, want 200", code)
	}
	if _, err := os.Stat(dsDir); !os.IsNotExist(err) {
		t.Fatalf("durable dir still present after DELETE: %v", err)
	}
	// The name is immediately reusable.
	if code, body := postJSON(t, ts.URL+"/v1/datasets", map[string]any{"name": "tmp", "data": seedData, "maintain": true}); code != 200 {
		t.Fatalf("re-register after delete: %d %s", code, body)
	}
}

// TestPlainOverDurableDoesNotResurrect: re-registering a durable maintained
// name as a plain dataset must not leave the old directory behind for a
// restart to bring back. Whatever the server serves under the name before
// the restart, it serves after it.
func TestPlainOverDurableDoesNotResurrect(t *testing.T) {
	svc, err := mrskyline.NewService(mrskyline.ServiceConfig{Nodes: 2, SlotsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	dataDir := t.TempDir()
	first := newServer(svc, dataDir)
	ts := httptest.NewServer(first.handler())
	defer ts.Close()

	if code, body := postJSON(t, ts.URL+"/v1/datasets", map[string]any{"name": "x", "data": seedData[:2], "maintain": true}); code != 200 {
		t.Fatalf("register maintained: %d %s", code, body)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/datasets", map[string]any{"name": "x", "data": seedData}); code != http.StatusConflict {
		t.Errorf("plain over durable: %d, want 409", code)
	}
	served := func(s *server) string {
		ds := s.datasets["x"]
		if ds == nil {
			return "none"
		}
		return fmt.Sprintf("rows=%d maintained=%t", ds.size(), ds.maint != nil)
	}
	before := served(first)
	first.closeDatasets()

	restarted := newServer(svc, dataDir)
	if err := restarted.restoreDatasets(); err != nil {
		t.Fatal(err)
	}
	defer restarted.closeDatasets()
	if after := served(restarted); after != before {
		t.Fatalf("restart serves %q as %s, before it served %s", "x", after, before)
	}
}
