// Command skylined serves skyline queries over HTTP. One mrskyline.Service
// — a single long-lived simulated cluster behind a FIFO admission
// controller — executes every query, so concurrent requests share the
// cluster's task slots the way concurrent jobs share a real cluster.
//
// Endpoints (all JSON):
//
//	POST /v1/skyline      {"data": [[..]], "algorithm": "MR-GPMRS", ...}
//	POST /v1/constrained  {..., "constraints": [{"min":0.2,"max":1}, {}]}
//	POST /v1/subspace     {..., "dims": [0, 2]}
//	POST   /v1/datasets        {"name":"hotels", "data":[[..]]} or
//	                           {"name":"anti", "generate":{"distribution":"anticorrelated","card":1000,"dim":4,"seed":7}}
//	GET    /v1/datasets        list cached datasets
//	DELETE /v1/datasets/{name} drop a dataset (and its durable state)
//	GET    /v1/stats           service load + metrics registry
//	GET    /healthz            liveness
//
// A dataset registered with "maintain": true keeps its skyline
// incrementally up to date under churn instead of recomputing per query:
//
//	POST /v1/datasets/{name}/deltas   {"deltas":[{"op":"insert","row":[..]},{"op":"delete","row":[..]}]}
//	GET  /v1/datasets/{name}/skyline  latest skyline + generation; ?since_gen=N
//	                                  answers {"changed":false} cheaply when nothing moved
//
// With -datadir, maintained datasets are durable: every acknowledged
// delta batch is in the write-ahead log under
// <datadir>/datasets/<name>/ before the response is sent (policy per
// -walsync), and on startup every dataset found there is restored to its
// exact pre-shutdown skyline and generation.
//
// Query requests name a cached dataset ("dataset":"hotels") or carry rows
// inline ("data"). Overload surfaces as 429, a deadline as 504, invalid
// arguments as 400.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	mrskyline "mrskyline"
	"mrskyline/internal/cliflag"
	"mrskyline/internal/obs"
	"mrskyline/internal/rpcexec"
)

func main() {
	// Worker re-exec entry: when a process-executor master spawned this
	// process, serve tasks and exit instead of starting the HTTP server.
	rpcexec.WorkerMain()
	addr := flag.String("addr", ":8080", "listen address")
	executor := flag.String("executor", "inproc", "MapReduce backend: inproc (simulated cluster) or process (multi-process workers over RPC)")
	workers := flag.Int("workers", 4, "worker processes for -executor=process")
	nodes := flag.Int("nodes", 8, "simulated cluster nodes (inproc)")
	slots := flag.Int("slots", 2, "task slots per node (inproc)")
	maxInFlight := flag.Int("maxinflight", 4, "concurrently executing queries")
	maxQueue := flag.Int("maxqueue", 64, "queued queries beyond maxinflight (negative: reject when busy)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-query deadline (0: none)")
	spillBudget := flag.Int64("spillbudget", 0, "external-memory shuffle budget in bytes (0 = all in RAM)")
	spillDir := flag.String("spilldir", "", "directory for spill run files (default: the system temp dir; only with -spillbudget > 0)")
	dataDir := flag.String("datadir", "", "root directory for durable maintained datasets (empty: memory-only)")
	walSync := flag.String("walsync", "always", "WAL fsync policy for durable datasets: always|batch|interval")
	walSyncInterval := flag.Duration("walsyncinterval", 0, "fsync cadence for -walsync=interval (default 50ms)")
	checkpointEvery := flag.Int("checkpointevery", 0, "checkpoint a durable dataset after this many delta batches (default 256, negative: only on shutdown)")
	flag.Parse()

	if err := cliflag.ValidateSpillConfig(*spillBudget, *spillDir, cliflag.Set("spillbudget"), cliflag.Set("spilldir")); err != nil {
		log.Fatalf("skylined: %v", err)
	}

	if *dataDir == "" && (cliflag.Set("walsync") || cliflag.Set("walsyncinterval") || cliflag.Set("checkpointevery")) {
		log.Fatalf("skylined: -walsync/-walsyncinterval/-checkpointevery require -datadir")
	}
	cfg := mrskyline.ServiceConfig{
		Nodes:              *nodes,
		SlotsPerNode:       *slots,
		MaxInFlight:        *maxInFlight,
		MaxQueue:           *maxQueue,
		QueryTimeout:       *timeout,
		SpillBudget:        *spillBudget,
		SpillDir:           *spillDir,
		WALSync:            *walSync,
		WALSyncInterval:    *walSyncInterval,
		WALCheckpointEvery: *checkpointEvery,
	}
	switch *executor {
	case "inproc":
	case "process":
		if err := cliflag.ValidateWorkers(*workers); err != nil {
			log.Fatalf("skylined: %v", err)
		}
		spillDirProc := *spillDir
		if *spillBudget > 0 && spillDirProc == "" {
			spillDirProc = os.TempDir()
		}
		pe, err := rpcexec.New(rpcexec.Config{
			Workers:     *workers,
			SpillBudget: *spillBudget,
			SpillDir:    spillDirProc,
			// What /v1/stats serves: admission outcomes and the rpc.* series.
			Trace: obs.NewMetricsOnly(),
		})
		if err != nil {
			log.Fatal(err)
		}
		cfg.Executor = pe
	default:
		log.Fatalf("skylined: unknown -executor %q (want inproc|process)", *executor)
	}
	svc, err := mrskyline.NewService(cfg)
	if err != nil {
		log.Fatal(err)
	}
	web := newServer(svc, *dataDir)
	if *dataDir != "" {
		if err := web.restoreDatasets(); err != nil {
			log.Fatalf("skylined: %v", err)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// Graceful shutdown on SIGINT/SIGTERM: stop accepting requests, write a
	// final checkpoint for every durable dataset, shut worker processes
	// down. A later restart with the same -datadir replays nothing.
	httpSrv := &http.Server{
		Handler:           web.handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	shutdownDone := make(chan struct{})
	go func() {
		<-sigs
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		httpSrv.Shutdown(ctx) // Serve returns ErrServerClosed
		cancel()
		web.closeDatasets()
		svc.Close()
		close(shutdownDone)
	}()
	if *executor == "process" {
		log.Printf("skylined: listening on %s (%d worker processes, %d in flight)", ln.Addr(), *workers, *maxInFlight)
	} else {
		log.Printf("skylined: listening on %s (%d nodes × %d slots, %d in flight)", ln.Addr(), *nodes, *slots, *maxInFlight)
	}
	err = httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		<-shutdownDone
		return
	}
	web.closeDatasets()
	svc.Close()
	log.Fatal(err)
}

// server is the HTTP front-end: one Service plus a named-dataset cache so
// repeated queries against the same data do not re-ship rows in every
// request body.
type server struct {
	svc *mrskyline.Service
	// maxBody caps a request body's bytes (maxBodyBytes; decodeBody).
	maxBody int64
	// dataDir is the root for durable maintained datasets ("" = memory
	// only); each lives in dataDir/datasets/<name>/.
	dataDir string

	mu       sync.RWMutex
	datasets map[string]*dataset

	// regMu makes a registration one step: POST holds it from the name
	// check through opening the handle to installing it, DELETE for its
	// whole run, so two registrations of one name cannot both pass the
	// check. Queries never take it, so they do not wait on a large seed.
	regMu sync.Mutex
}

// dataset is one cache entry: plain rows with the Service handle that
// serves queries over them (rows checked once, job 1 prepared once), or a
// maintained skyline handle when the dataset was registered with
// "maintain": true. Maintained entries serve regular queries from their
// current resident rows, which change under deltas, so each query takes a
// transient handle over them, as inline rows do. dir is the durable
// directory ("" for memory-only entries).
type dataset struct {
	plain *mrskyline.Dataset
	maint *mrskyline.MaintainedSkyline
	dir   string

	// textMu guards text, the maintained skyline's latest generation as a
	// changed poll's body. It lives and dies with the entry, so replacing
	// or deleting the dataset drops it.
	textMu sync.Mutex
	text   *skylineText
}

// skylineBody returns the body of a changed poll on the maintained
// skyline's latest generation. One caller builds a generation's text, from
// the previous generation's; callers that arrive meanwhile wait for it and
// share it. The bytes are never written to again, so the caller sends them
// after textMu is released and a slow reader stalls no other poller.
func (d *dataset) skylineBody() ([]byte, error) {
	d.textMu.Lock()
	defer d.textMu.Unlock()
	if d.text == nil || d.text.gen != d.maint.Generation() {
		t := d.text.next(d.maint.Skyline())
		if t.err != nil {
			return nil, &httpError{http.StatusInternalServerError, t.err.Error()}
		}
		d.text = t
	}
	return d.text.body, nil
}

func (d *dataset) size() int {
	if d.maint != nil {
		return d.maint.Size()
	}
	return d.plain.Len()
}

func newServer(svc *mrskyline.Service, dataDir string) *server {
	return &server{svc: svc, maxBody: maxBodyBytes, dataDir: dataDir, datasets: make(map[string]*dataset)}
}

// datasetDir returns the durable directory for name, or "" when the
// server runs memory-only.
func (s *server) datasetDir(name string) string {
	if s.dataDir == "" {
		return ""
	}
	return filepath.Join(s.dataDir, "datasets", name)
}

// restoreDatasets reopens every durable maintained dataset found under
// dataDir at startup. A directory holding no durable state is skipped
// with a warning; corrupt state is a startup error — skylined refuses to
// serve data it cannot prove correct.
func (s *server) restoreDatasets() error {
	root := filepath.Join(s.dataDir, "datasets")
	ents, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if err := validateDatasetName(name); err != nil {
			log.Printf("skylined: skipping %s: %v", filepath.Join(root, name), err)
			continue
		}
		dir := filepath.Join(root, name)
		h, err := s.svc.RestoreMaintained(mrskyline.MaintainOptions{DataDir: dir})
		if errors.Is(err, mrskyline.ErrNoDurableState) {
			log.Printf("skylined: skipping %s: no durable state", dir)
			continue
		}
		if err != nil {
			return fmt.Errorf("restoring dataset %q: %w", name, err)
		}
		s.datasets[name] = &dataset{maint: h, dir: dir}
		log.Printf("skylined: restored dataset %q (%d rows, gen %d)", name, h.Size(), h.Generation())
	}
	return nil
}

// closeDatasets closes every maintained handle, writing final checkpoints
// for the durable ones.
func (s *server) closeDatasets() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, ds := range s.datasets {
		if ds.maint == nil {
			continue
		}
		if err := ds.maint.Close(); err != nil {
			log.Printf("skylined: closing dataset %q: %v", name, err)
		}
	}
}

// validateDatasetName rejects names that could escape the datasets
// directory or break filenames once they become on-disk paths: path
// separators, "." / "..", NUL and other control bytes, and unbounded
// length.
func validateDatasetName(name string) error {
	if name == "" {
		return errors.New(`"name" is required`)
	}
	if len(name) > 128 {
		return fmt.Errorf(`"name" is too long (%d bytes, max 128)`, len(name))
	}
	if name == "." || name == ".." {
		return fmt.Errorf(`invalid dataset name %q`, name)
	}
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c == '/' || c == '\\':
			return fmt.Errorf(`dataset name %q must not contain path separators`, name)
		case c < 0x20 || c == 0x7f:
			return fmt.Errorf(`dataset name %q must not contain control characters`, name)
		}
	}
	return nil
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	for _, route := range []string{"/v1/skyline", "/v1/constrained", "/v1/subspace"} {
		mux.HandleFunc(route, s.handleQuery(route))
	}
	mux.HandleFunc("/v1/datasets", s.handleDatasets)
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDeleteDataset)
	mux.HandleFunc("POST /v1/datasets/{name}/deltas", s.handleDeltas)
	mux.HandleFunc("GET /v1/datasets/{name}/skyline", s.handleMaintainedSkyline)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// queryRequest is the shared body of the three query endpoints.
type queryRequest struct {
	// Dataset names a cached dataset; Data carries rows inline. Exactly
	// one must be set (empty data is expressed as "data": []).
	Dataset string      `json:"dataset,omitempty"`
	Data    [][]float64 `json:"data,omitempty"`

	Algorithm string `json:"algorithm,omitempty"`
	Maximize  []bool `json:"maximize,omitempty"`
	PPD       int    `json:"ppd,omitempty"`
	Mappers   int    `json:"mappers,omitempty"`
	Reducers  int    `json:"reducers,omitempty"`

	// Constraints applies to /v1/constrained: one range per dimension; a
	// missing side is unbounded. Any other route rejects it.
	Constraints []rangeJSON `json:"constraints,omitempty"`
	// Dims applies to /v1/subspace; any other route rejects it.
	Dims []int `json:"dims,omitempty"`
}

type rangeJSON struct {
	Min *float64 `json:"min"`
	Max *float64 `json:"max"`
}

func (r rangeJSON) toRange() mrskyline.Range {
	out := mrskyline.Unbounded()
	if r.Min != nil {
		out.Min = *r.Min
	}
	if r.Max != nil {
		out.Max = *r.Max
	}
	return out
}

func (q *queryRequest) options() mrskyline.Options {
	return mrskyline.Options{
		Algorithm: mrskyline.Algorithm(q.Algorithm),
		Maximize:  q.Maximize,
		PPD:       q.PPD,
		Mappers:   q.Mappers,
		Reducers:  q.Reducers,
	}
}

type queryResponse struct {
	Skyline [][]float64     `json:"skyline"`
	Stats   mrskyline.Stats `json:"stats"`
}

// httpError pairs a message with its status code.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func errCode(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.code
	case errors.Is(err, mrskyline.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	default:
		return http.StatusBadRequest
	}
}

func writeError(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(errCode(err))
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeBody sends body, a JSON value and its newline as writeJSON would
// have written them, with its length.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// What a connection may cost the daemon before a handler runs, and what a
// body may. A client gets readHeaderTimeout to send a request's headers and
// an idle keep-alive connection is closed after idleTimeout; neither bounds
// a query, which the service deadline does. maxBodyBytes is 16 times the
// ≈ 16 MB catalog the serve-query benchmark uploads.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxBodyBytes      = 256 << 20
)

// decodeBody parses a request's JSON body into v. The body is read once,
// whole, through the cap: a body over s.maxBody bytes is a 413, read no
// further. When v is a query or a registration, its top-level "data" row
// matrix is lifted out by the row reader (liftRows), so a null or non-JSON
// number in it is a 400 naming its row and column, and encoding/json
// decodes only the envelope left. A field v does not have is a 400 naming
// it: a misspelled "maximize" or "algorithm" dropped would answer a
// different query than the one asked. So is anything but white space after
// the value: a second object holding "maximize" would be dropped the same
// way.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
		return &httpError{http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", tooLarge.Limit)}
	}
	msg := "bad request body: "
	if err != nil {
		return &httpError{http.StatusBadRequest, msg + err.Error()}
	}
	var data *[][]float64 // where the body's "data" rows go
	switch v := v.(type) {
	case *queryRequest:
		data = &v.Data
	case *datasetRequest:
		data = &v.Data
	}
	var rows [][]float64
	found := false
	if data != nil {
		if body, rows, found, err = liftRows(body); err != nil {
			return &httpError{http.StatusBadRequest, msg + err.Error()}
		}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			if found {
				*data = rows
			}
			return nil
		}
		msg += "data after the JSON value"
	} else {
		msg += err.Error()
	}
	return &httpError{http.StatusBadRequest, msg}
}

// handleQuery serves one query route — /v1/skyline, /v1/constrained or
// /v1/subspace — over a registered dataset or rows sent inline. A
// route-specific field sent to another route is a 400, not dropped.
func (s *server) handleQuery(route string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, &httpError{http.StatusMethodNotAllowed, "POST required"})
			return
		}
		res, err := s.query(w, r, route)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, queryResponse{Skyline: res.Skyline, Stats: res.Stats})
	}
}

// query decodes a request to route and runs it.
func (s *server) query(w http.ResponseWriter, r *http.Request, route string) (*mrskyline.Result, error) {
	var q queryRequest
	if err := s.decodeBody(w, r, &q); err != nil {
		return nil, err
	}
	if q.Constraints != nil && route != "/v1/constrained" {
		return nil, &httpError{http.StatusBadRequest, route + ` does not read "constraints" (only /v1/constrained does)`}
	}
	if q.Dims != nil && route != "/v1/subspace" {
		return nil, &httpError{http.StatusBadRequest, route + ` does not read "dims" (only /v1/subspace does)`}
	}
	h, err := s.resolve(&q)
	if err != nil {
		return nil, err
	}
	switch route {
	case "/v1/constrained":
		constraints := make([]mrskyline.Range, len(q.Constraints))
		for i, rng := range q.Constraints {
			constraints[i] = rng.toRange()
		}
		return h.ComputeConstrained(r.Context(), constraints, q.options())
	case "/v1/subspace":
		return h.ComputeSubspace(r.Context(), q.Dims, q.options())
	}
	return h.Compute(r.Context(), q.options())
}

// resolve returns the handle a query runs on: a registered plain dataset's,
// or a transient one over inline "data" or a maintained dataset's residents
// as of this request.
func (s *server) resolve(q *queryRequest) (*mrskyline.Dataset, error) {
	if q.Dataset == "" {
		if q.Data == nil {
			return nil, &httpError{http.StatusBadRequest, `either "dataset" or "data" is required`}
		}
		return s.svc.Dataset(q.Data), nil
	}
	if q.Data != nil {
		return nil, &httpError{http.StatusBadRequest, `"dataset" and "data" are mutually exclusive`}
	}
	s.mu.RLock()
	ds, ok := s.datasets[q.Dataset]
	s.mu.RUnlock()
	if !ok {
		return nil, &httpError{http.StatusNotFound, fmt.Sprintf("unknown dataset %q", q.Dataset)}
	}
	if ds.maint != nil {
		return s.svc.Dataset(ds.maint.Rows()), nil
	}
	return ds.plain, nil
}

// lookupMaintained resolves a path's {name} to a maintained dataset.
func (s *server) lookupMaintained(r *http.Request) (*dataset, error) {
	name := r.PathValue("name")
	s.mu.RLock()
	ds, ok := s.datasets[name]
	s.mu.RUnlock()
	if !ok {
		return nil, &httpError{http.StatusNotFound, fmt.Sprintf("unknown dataset %q", name)}
	}
	if ds.maint == nil {
		return nil, &httpError{http.StatusConflict, fmt.Sprintf("dataset %q is not maintained (register it with \"maintain\": true)", name)}
	}
	return ds, nil
}

// handleDeltas applies a batch of inserts/deletes to a maintained
// dataset and reports the new generation.
func (s *server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	ds, err := s.lookupMaintained(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var req struct {
		Deltas []deltaJSON `json:"deltas"`
	}
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Deltas) == 0 {
		writeError(w, &httpError{http.StatusBadRequest, `"deltas" is required and must be non-empty`})
		return
	}
	deltas := make([]mrskyline.Delta, len(req.Deltas))
	for i, d := range req.Deltas {
		deltas[i] = mrskyline.Delta{Op: d.Op, Row: d.Row}
	}
	res, err := ds.maint.ApplyDeltas(deltas)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, res)
}

// handleMaintainedSkyline serves the latest maintained skyline. With
// ?since_gen=N it is a cheap continuous-query poll: when the generation
// still equals N the response is {"changed":false,"gen":N} with no rows.
// Otherwise it is the latest generation's text, built once for every
// request that reads it (dataset.skylineBody).
func (s *server) handleMaintainedSkyline(w http.ResponseWriter, r *http.Request) {
	ds, err := s.lookupMaintained(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if sg := r.URL.Query().Get("since_gen"); sg != "" {
		since, err := strconv.ParseUint(sg, 10, 64)
		if err != nil {
			writeError(w, &httpError{http.StatusBadRequest, "bad since_gen: " + err.Error()})
			return
		}
		if cur := ds.maint.Generation(); cur == since {
			b := strconv.AppendUint([]byte(`{"changed":false,"gen":`), cur, 10)
			writeBody(w, append(b, "}\n"...))
			return
		}
	}
	body, err := ds.skylineBody()
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, body)
}

// datasetRequest registers a named dataset: inline rows or a synthetic
// generator spec (the distributions of the paper's evaluation).
type datasetRequest struct {
	Name     string      `json:"name"`
	Data     [][]float64 `json:"data,omitempty"`
	Generate *struct {
		Distribution string `json:"distribution"`
		Card         int    `json:"card"`
		Dim          int    `json:"dim"`
		Seed         int64  `json:"seed"`
	} `json:"generate,omitempty"`
	// Maintain opens the dataset as an incrementally maintained skyline:
	// POST {name}/deltas applies churn and GET {name}/skyline reads the
	// up-to-date result without recomputing. The remaining fields tune the
	// maintained handle (see mrskyline.MaintainOptions) and require
	// Maintain; MaintainDim permits an empty seed ("data": []).
	Maintain       bool   `json:"maintain,omitempty"`
	MaintainDim    int    `json:"maintain_dim,omitempty"`
	MaintainPPD    int    `json:"maintain_ppd,omitempty"`
	MaintainWindow int    `json:"maintain_window,omitempty"`
	Maximize       []bool `json:"maximize,omitempty"`
}

func (s *server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.RLock()
		type entry struct {
			Name       string `json:"name"`
			Rows       int    `json:"rows"`
			Maintained bool   `json:"maintained,omitempty"`
			Gen        uint64 `json:"gen,omitempty"`
		}
		list := make([]entry, 0, len(s.datasets))
		for name, ds := range s.datasets {
			e := entry{Name: name, Rows: ds.size()}
			if ds.maint != nil {
				e.Maintained = true
				e.Gen = ds.maint.Generation()
			}
			list = append(list, e)
		}
		s.mu.RUnlock()
		sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
		writeJSON(w, map[string]any{"datasets": list})
	case http.MethodPost:
		var req datasetRequest
		if err := s.decodeBody(w, r, &req); err != nil {
			writeError(w, err)
			return
		}
		if err := validateDatasetName(req.Name); err != nil {
			writeError(w, &httpError{http.StatusBadRequest, err.Error()})
			return
		}
		data := req.Data
		if req.Generate != nil {
			if data != nil {
				writeError(w, &httpError{http.StatusBadRequest, `"data" and "generate" are mutually exclusive`})
				return
			}
			g := req.Generate
			var err error
			data, err = mrskyline.Generate(g.Distribution, g.Card, g.Dim, g.Seed)
			if err != nil {
				writeError(w, err)
				return
			}
		}
		if data == nil {
			writeError(w, &httpError{http.StatusBadRequest, `either "data" or "generate" is required`})
			return
		}
		if !req.Maintain && (req.MaintainDim != 0 || req.MaintainPPD != 0 || req.MaintainWindow != 0 || req.Maximize != nil) {
			writeError(w, &httpError{http.StatusBadRequest, `"maintain_dim"/"maintain_ppd"/"maintain_window"/"maximize" require "maintain": true`})
			return
		}
		// A durable dataset owns an on-disk directory that restoreDatasets
		// brings back at startup: replacing it, with either kind, would
		// overwrite its logged state or let that state resurrect over the
		// replacement. Require an explicit DELETE first, as for any durable
		// registration over a loaded name.
		dir := ""
		if req.Maintain {
			dir = s.datasetDir(req.Name)
		}
		s.regMu.Lock()
		defer s.regMu.Unlock()
		s.mu.RLock()
		old, loaded := s.datasets[req.Name]
		s.mu.RUnlock()
		if loaded && (old.dir != "" || dir != "") {
			writeError(w, &httpError{http.StatusConflict, fmt.Sprintf("dataset %q already exists; DELETE it first", req.Name)})
			return
		}
		ds := &dataset{plain: s.svc.Dataset(data)}
		if req.Maintain {
			h, err := s.svc.OpenMaintained(data, mrskyline.MaintainOptions{
				Dim:        req.MaintainDim,
				PPD:        req.MaintainPPD,
				WindowSize: req.MaintainWindow,
				Maximize:   req.Maximize,
				DataDir:    dir,
			})
			if err != nil {
				writeError(w, err)
				return
			}
			ds = &dataset{maint: h, dir: dir}
		}
		s.mu.Lock()
		if loaded && old.maint != nil {
			old.maint.Close()
		}
		s.datasets[req.Name] = ds
		s.mu.Unlock()
		resp := map[string]any{"name": req.Name, "rows": ds.size()}
		if req.Maintain {
			resp["maintained"] = true
			resp["gen"] = ds.maint.Generation()
			resp["skyline_size"] = len(ds.maint.Skyline().Skyline)
		}
		writeJSON(w, resp)
	default:
		writeError(w, &httpError{http.StatusMethodNotAllowed, "GET or POST required"})
	}
}

// handleDeleteDataset drops a dataset: the maintained handle (if any) is
// closed and its durable state — log segments and checkpoints — removed
// from disk, so the name is immediately reusable.
func (s *server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.regMu.Lock()
	defer s.regMu.Unlock()
	s.mu.Lock()
	ds, ok := s.datasets[name]
	if ok {
		delete(s.datasets, name)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, &httpError{http.StatusNotFound, fmt.Sprintf("unknown dataset %q", name)})
		return
	}
	if ds.maint != nil {
		if err := ds.maint.Close(); err != nil {
			log.Printf("skylined: closing dataset %q: %v", name, err)
		}
	}
	if ds.dir != "" {
		if err := os.RemoveAll(ds.dir); err != nil {
			writeError(w, &httpError{http.StatusInternalServerError, fmt.Sprintf("removing durable state: %v", err)})
			return
		}
	}
	writeJSON(w, map[string]any{"name": name, "deleted": true})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, &httpError{http.StatusMethodNotAllowed, "GET required"})
		return
	}
	metrics, err := s.svc.MetricsJSON()
	if err != nil {
		writeError(w, &httpError{http.StatusInternalServerError, err.Error()})
		return
	}
	writeJSON(w, map[string]any{
		"service": s.svc.Stats(),
		"metrics": json.RawMessage(metrics),
	})
}
