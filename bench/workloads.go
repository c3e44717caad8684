package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	mrskyline "mrskyline"
	"mrskyline/internal/obs"
	"mrskyline/internal/skyline"
	"mrskyline/internal/tuple"
)

// workload is one benchmark workload as its child process sees it. A pass
// calls setup (timed; setupReps times, with teardown in between), prepare
// (untimed: oracle references), then op from clients() goroutines in a
// closed loop, then finish (end-of-round oracle) and teardown.
type workload interface {
	clients() int
	// procs is GOMAXPROCS of the pass's process.
	procs() int
	setupReps() int
	setup() error
	teardown()
	prepare() error
	// op runs one operation for the given client and returns its latency.
	// The oracle check runs after the latency is taken; a failed check or
	// request is an error and the latency is discarded. tr may be nil.
	op(client int, tr *obs.Tracer) (time.Duration, error)
	finish() error
	// pid is the process whose resident memory rss_mb reports.
	pid() int
	walkInputs() walkInputs
}

// sizes holds every cardinality the workloads use, so the smoke test can
// run the same code on tiny inputs.
type sizes struct {
	antiCard, indepCard       int // batch-anti, batch-indep
	qIndep, qCatalog, qAnti   int // serve-query cached datasets
	qInline                   int // serve-query inline rows
	churnSeed, churnPool      int // serve-churn seed rows, insert rows per client
	batchReps, serveSetupReps int
}

var fullSizes = sizes{
	antiCard: 40000, indepCard: 150000,
	qIndep: 20000, qCatalog: 200000, qAnti: 5000, qInline: 2000,
	churnSeed: 200000, churnPool: 100000,
	batchReps: 7, serveSetupReps: 2,
}

var tinySizes = sizes{
	antiCard: 1500, indepCard: 3000,
	qIndep: 800, qCatalog: 3000, qAnti: 400, qInline: 200,
	churnSeed: 3000, churnPool: 20000,
	batchReps: 1, serveSetupReps: 1,
}

// env is what a workload needs from its pass.
type env struct {
	seed     int64
	sz       sizes
	tmp      string // pass-private scratch directory
	skylined string // daemon binary
}

func newWorkload(name string, e env) (workload, error) {
	switch name {
	case "batch-anti":
		return newBatch(e, "anticorrelated", e.sz.antiCard, 5)
	case "batch-indep":
		return newBatch(e, "independent", e.sz.indepCard, 3)
	case "serve-query":
		return newQuery(e)
	case "serve-churn":
		return newChurn(e)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// numClients is the closed loop's width for the serve workloads: two callers
// that each wait for their reply, or one on a single-CPU host.
func numClients() int { return min(2, runtime.NumCPU()) }

// ---------------------------------------------------------------------------
// Oracle helpers

// setHash is an order-independent digest of a multiset of rows.
type setHash struct {
	n        int
	sum, xor uint64
}

// hashRows digests each row with FNV-1a over its float bits. It allocates
// nothing: for the batch workloads the oracle runs inside the process whose
// memory rss_mb reports.
func hashRows(rows [][]float64) setHash {
	var h setHash
	for _, r := range rows {
		x := uint64(14695981039346656037)
		for _, v := range r {
			for b, i := math.Float64bits(v), 0; i < 8; i, b = i+1, b>>8 {
				x = (x ^ b&0xff) * 1099511628211
			}
		}
		h.n++
		h.sum += x
		h.xor ^= x
	}
	return h
}

func toList(rows [][]float64) tuple.List {
	l := make(tuple.List, len(rows))
	for i, r := range rows {
		l[i] = r
	}
	return l
}

func fromList(l tuple.List) [][]float64 {
	rows := make([][]float64, len(l))
	for i, t := range l {
		rows[i] = t
	}
	return rows
}

// referenceSkyline is the oracle: sort-filter-skyline straight from
// internal/skyline, with no grid, no MapReduce job and no codec.
func referenceSkyline(rows [][]float64) setHash {
	return hashRows(fromList(skyline.SFS(toList(rows), nil)))
}

// ---------------------------------------------------------------------------
// batch-anti, batch-indep

type batch struct {
	e    env
	gen  [][]float64 // generated rows, before the CSV round trip
	data [][]float64 // rows as set-up read them back
	want setHash
}

func newBatch(e env, dist string, card, dim int) (*batch, error) {
	gen, err := mrskyline.Generate(dist, card, dim, e.seed)
	if err != nil {
		return nil, err
	}
	return &batch{e: e, gen: gen}, nil
}

func (b *batch) clients() int { return 1 }

// procs leaves one core to the harness, the kernel and the host's other
// tenants. A single caller's fork-join jobs have no slack when there are as
// many busy threads as cores: every time slice taken from one thread stalls
// the job at its next barrier. On the 2-vCPU sandbox that moved the median
// operation by 15 % from one 10 s round to the next, against 2 % with one
// core left free (README.md, "Run shape"). The serve workloads keep every
// core: two clients always have a second request to fill a stall with, and
// with one core for the daemon serve-query's spread doubled.
func (b *batch) procs() int { return max(1, runtime.NumCPU()-1) }

func (b *batch) setupReps() int { return b.e.sz.batchReps }
func (b *batch) pid() int       { return os.Getpid() }

func (b *batch) csvPath() string { return filepath.Join(b.e.tmp, "data.csv") }

// setup is what a batch user waits for before the first Compute: the
// dataset written as CSV and parsed back.
func (b *batch) setup() error {
	f, err := os.Create(b.csvPath())
	if err != nil {
		return err
	}
	if err := mrskyline.WriteCSV(f, b.gen); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	in, err := os.Open(b.csvPath())
	if err != nil {
		return err
	}
	defer in.Close()
	b.data, err = mrskyline.ReadCSV(in)
	return err
}

func (b *batch) teardown() {
	os.Remove(b.csvPath())
	b.data = nil
}

func (b *batch) prepare() error {
	b.want = referenceSkyline(b.data)
	return nil
}

func (b *batch) op(_ int, tr *obs.Tracer) (time.Duration, error) {
	sp := tr.Start("client-0", "Compute", "op")
	t0 := time.Now()
	res, err := mrskyline.Compute(b.data, mrskyline.Options{})
	lat := time.Since(t0)
	sp.End()
	if err != nil {
		return 0, err
	}
	if got := hashRows(res.Skyline); got != b.want {
		return 0, fmt.Errorf("skyline mismatch: got %d rows, oracle has %d", got.n, b.want.n)
	}
	return lat, nil
}

func (b *batch) finish() error { return nil }

func (b *batch) walkInputs() walkInputs {
	return walkInputs{data: b.data, scan: b.data, sub: head(b.data, 5000)}
}

func head(rows [][]float64, n int) [][]float64 { return rows[:min(n, len(rows))] }

// ---------------------------------------------------------------------------
// serve-query

// queryBox is the narrow constraint of the catalog request: 10% of the
// first dimension, half of the second, the rest open. The O(N) filter over
// the cached rows dominates the small job that follows.
var queryBox = []mrskyline.Range{
	{Min: 0.2, Max: 0.3}, {Min: 0.5, Max: math.Inf(1)}, mrskyline.Unbounded(), mrskyline.Unbounded(),
}

// boxJSON renders queryBox as the "constraints" of a request on
// dim-dimensional data; dimensions beyond the box are unconstrained.
func boxJSON(dim int) string {
	parts := make([]string, dim)
	for k := range parts {
		var side []string
		if k < len(queryBox) && !math.IsInf(queryBox[k].Min, -1) {
			side = append(side, fmt.Sprintf(`"min":%g`, queryBox[k].Min))
		}
		if k < len(queryBox) && !math.IsInf(queryBox[k].Max, 1) {
			side = append(side, fmt.Sprintf(`"max":%g`, queryBox[k].Max))
		}
		parts[k] = "{" + strings.Join(side, ",") + "}"
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// inlinePool is how many distinct inline row sets the sessions rotate
// through, so the fourth request is not the same bytes every time.
const inlinePool = 8

type request struct {
	kind string // span name and skylined.* metric stem
	path string
	body []byte
	want setHash
}

type query struct {
	e                    env
	c                    *http.Client
	d                    *daemon
	indep, catalog, anti [][]float64
	uploads              [][]byte   // POST /v1/datasets bodies
	fixed                [3]request // the three cached-dataset requests
	inline               []request  // pool for the fourth
	sessions             []int      // per client: sessions done
}

func newQuery(e env) (*query, error) {
	q := &query{e: e, c: httpClient(numClients()), sessions: make([]int, numClients())}
	var err error
	gen := func(dist string, card int, off int64) [][]float64 {
		if err != nil {
			return nil
		}
		var rows [][]float64
		rows, err = mrskyline.Generate(dist, card, 4, e.seed+off)
		return rows
	}
	q.indep = gen("independent", e.sz.qIndep, 1)
	q.catalog = gen("independent", e.sz.qCatalog, 2)
	q.anti = gen("anticorrelated", e.sz.qAnti, 3)
	inl := make([][][]float64, inlinePool)
	for i := range inl {
		inl[i] = gen("independent", e.sz.qInline, 10+int64(i))
	}
	if err != nil {
		return nil, err
	}
	for _, ds := range []struct {
		name string
		rows [][]float64
	}{{"indep", q.indep}, {"catalog", q.catalog}, {"anti", q.anti}} {
		body, err := json.Marshal(map[string]any{"name": ds.name, "data": ds.rows})
		if err != nil {
			return nil, err
		}
		q.uploads = append(q.uploads, body)
	}
	q.fixed = [3]request{
		{kind: "skyline_dataset", path: "/v1/skyline", body: []byte(`{"dataset":"indep"}`)},
		{kind: "constrained_catalog", path: "/v1/constrained", body: []byte(`{"dataset":"catalog","constraints":` + boxJSON(4) + `}`)},
		{kind: "subspace", path: "/v1/subspace", body: []byte(`{"dataset":"anti","dims":[0,3]}`)},
	}
	for _, rows := range inl {
		body, err := json.Marshal(map[string]any{"data": rows, "algorithm": "MR-GPSRS"})
		if err != nil {
			return nil, err
		}
		q.inline = append(q.inline, request{kind: "skyline_inline", path: "/v1/skyline", body: body, want: referenceSkyline(rows)})
	}
	return q, nil
}

func (q *query) clients() int   { return numClients() }
func (q *query) procs() int     { return runtime.NumCPU() }
func (q *query) setupReps() int { return q.e.sz.serveSetupReps }
func (q *query) pid() int       { return q.d.pid() }

// setup is what an operator waits for before the first query: the daemon
// up and healthy and the three datasets uploaded as inline rows.
func (q *query) setup() error {
	d, err := startDaemon(q.c, q.e.skylined)
	if err != nil {
		return err
	}
	q.d = d
	for _, body := range q.uploads {
		if _, err := do(q.c, http.MethodPost, d.base+"/v1/datasets", body); err != nil {
			return err
		}
	}
	return nil
}

func (q *query) teardown() {
	if q.d != nil {
		q.d.kill()
		q.d = nil
	}
}

// inBox filters rows by queryBox, independently of mrskyline's own filter.
func inBox(rows [][]float64) [][]float64 {
	var out [][]float64
	for _, r := range rows {
		ok := true
		for k, rg := range queryBox {
			if r[k] < rg.Min || r[k] > rg.Max {
				ok = false
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out
}

func project(rows [][]float64, dims ...int) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		p := make([]float64, len(dims))
		for j, k := range dims {
			p[j] = r[k]
		}
		out[i] = p
	}
	return out
}

func (q *query) prepare() error {
	q.fixed[0].want = referenceSkyline(q.indep)
	q.fixed[1].want = referenceSkyline(inBox(q.catalog))
	q.fixed[2].want = referenceSkyline(project(q.anti, 0, 3))
	return nil
}

// checkSkyline verifies one query response against its request's oracle.
func checkSkyline(r *request, body []byte) error {
	var resp struct {
		Skyline [][]float64 `json:"skyline"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: %w", r.kind, err)
	}
	if got := hashRows(resp.Skyline); got != r.want {
		return fmt.Errorf("%s: skyline mismatch: got %d rows, oracle has %d", r.kind, got.n, r.want.n)
	}
	return nil
}

// op is one session: the three cached-dataset queries and one inline query,
// back to back on one connection.
func (q *query) op(client int, tr *obs.Tracer) (time.Duration, error) {
	n := q.sessions[client]
	q.sessions[client]++
	reqs := [4]*request{&q.fixed[0], &q.fixed[1], &q.fixed[2], &q.inline[(n*q.clients()+client)%len(q.inline)]}
	var bodies [4][]byte
	track := "client-" + strconv.Itoa(client)
	id := obs.Arg{Key: "op", Value: fmt.Sprintf("%d.%d", client, n)}
	sp := tr.Start(track, "session", "op", id)
	t0 := time.Now()
	for i, r := range reqs {
		rs := tr.Start(track, r.kind, "http", id)
		body, err := do(q.c, http.MethodPost, q.d.base+r.path, r.body)
		rs.End()
		if err != nil {
			sp.End()
			return 0, err
		}
		bodies[i] = body
	}
	lat := time.Since(t0)
	sp.End()
	for i, r := range reqs {
		if err := checkSkyline(r, bodies[i]); err != nil {
			return 0, err
		}
	}
	return lat, nil
}

func (q *query) finish() error { return nil }

func (q *query) walkInputs() walkInputs {
	return walkInputs{data: q.indep, scan: q.catalog, sub: q.anti}
}

// ---------------------------------------------------------------------------
// serve-churn

const (
	churnName      = "churn"
	deltasPerBatch = 64
	pollsPerBatch  = 4
	// insertOnly is how many of a client's first sessions post inserts only,
	// building the pool of live rows that later sessions delete from; after
	// them every batch deletes as many rows as it inserts.
	insertOnly = 8
)

type churnClient struct {
	pool     [][]float64 // rows this client inserts, in order
	next     int         // next pool index to insert
	live     [][]float64 // rows inserted and not yet deleted, oldest first
	sessions int
	cursor   uint64 // last generation this client saw
}

type churn struct {
	e       env
	c       *http.Client
	d       *daemon
	seed    [][]float64
	cl      []*churnClient
	datadir string

	mu   sync.Mutex
	acks []uint64 // generation of every acknowledged batch
	gen0 uint64   // generation before the first batch
}

func newChurn(e env) (*churn, error) {
	seed, err := mrskyline.Generate("anticorrelated", e.sz.churnSeed, 4, e.seed)
	if err != nil {
		return nil, err
	}
	w := &churn{e: e, c: httpClient(numClients()), seed: seed, datadir: filepath.Join(e.tmp, "datadir")}
	for i := 0; i < numClients(); i++ {
		pool, err := mrskyline.Generate("anticorrelated", e.sz.churnPool, 4, e.seed+100+int64(i))
		if err != nil {
			return nil, err
		}
		w.cl = append(w.cl, &churnClient{pool: pool})
	}
	return w, nil
}

func (w *churn) clients() int   { return len(w.cl) }
func (w *churn) procs() int     { return runtime.NumCPU() }
func (w *churn) setupReps() int { return w.e.sz.serveSetupReps }
func (w *churn) pid() int       { return w.d.pid() }

func (w *churn) daemonArgs() []string {
	return []string{"-datadir", w.datadir, "-walsync", "always"}
}

// setup is what an operator of a durable dataset waits for across a
// restart: register the dataset (seed + first snapshot), shut down
// gracefully (final checkpoint), start again on the same directory
// (restore) and see /healthz.
func (w *churn) setup() error {
	if err := os.MkdirAll(w.datadir, 0o755); err != nil {
		return err
	}
	d, err := startDaemon(w.c, w.e.skylined, w.daemonArgs()...)
	if err != nil {
		return err
	}
	w.d = d
	body := fmt.Sprintf(`{"name":%q,"maintain":true,"generate":{"distribution":"anticorrelated","card":%d,"dim":4,"seed":%d}}`,
		churnName, len(w.seed), w.e.seed)
	if _, err := do(w.c, http.MethodPost, d.base+"/v1/datasets", []byte(body)); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	w.d, err = startDaemon(w.c, w.e.skylined, w.daemonArgs()...)
	return err
}

func (w *churn) teardown() {
	if w.d != nil {
		w.d.kill()
		w.d = nil
	}
	os.RemoveAll(w.datadir)
}

func (w *churn) skylineURL() string {
	return w.d.base + "/v1/datasets/" + churnName + "/skyline"
}

type skylineReply struct {
	Gen     uint64          `json:"gen"`
	Changed bool            `json:"changed"`
	Skyline json.RawMessage `json:"skyline"`
}

func (w *churn) prepare() error {
	body, err := do(w.c, http.MethodGet, w.skylineURL(), nil)
	if err != nil {
		return err
	}
	var r skylineReply
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	w.gen0 = r.Gen
	for _, c := range w.cl {
		c.cursor = r.Gen
	}
	return nil
}

// nextBatch builds a client's next delta batch and returns it with the
// insert and delete counts the acknowledgement must report.
func (c *churnClient) nextBatch() (deltas []mrskyline.Delta, ins, del int) {
	ins = deltasPerBatch
	if c.sessions >= insertOnly {
		ins = deltasPerBatch / 2
		del = deltasPerBatch - ins
	}
	for _, row := range c.live[:del] {
		deltas = append(deltas, mrskyline.Delta{Op: mrskyline.DeltaDelete, Row: row})
	}
	c.live = c.live[del:]
	for i := 0; i < ins; i++ {
		row := c.pool[c.next%len(c.pool)]
		c.next++
		deltas = append(deltas, mrskyline.Delta{Op: mrskyline.DeltaInsert, Row: row})
		c.live = append(c.live, row)
	}
	c.sessions++
	return deltas, ins, del
}

// op is one session: a delta batch, then four polls with the client's
// generation cursor. The client parses each reply's generation inside the
// timed span, because the protocol needs it for the next request; only the
// oracle runs after.
func (w *churn) op(client int, tr *obs.Tracer) (time.Duration, error) {
	c := w.cl[client]
	deltas, ins, del := c.nextBatch()
	body, err := json.Marshal(map[string]any{"deltas": deltas})
	if err != nil {
		return 0, err
	}
	track := "client-" + strconv.Itoa(client)
	id := obs.Arg{Key: "op", Value: fmt.Sprintf("%d.%d", client, c.sessions)}
	sp := tr.Start(track, "session", "op", id)
	defer sp.End()
	t0 := time.Now()

	rs := tr.Start(track, "deltas_post", "http", id)
	raw, err := do(w.c, http.MethodPost, w.d.base+"/v1/datasets/"+churnName+"/deltas", body)
	rs.End()
	if err != nil {
		return 0, err
	}
	var ack mrskyline.DeltaResult
	if err := json.Unmarshal(raw, &ack); err != nil {
		return 0, err
	}
	var polls [pollsPerBatch]skylineReply
	before := c.cursor
	for i := range polls {
		rs := tr.Start(track, "poll", "http", id)
		raw, err := do(w.c, http.MethodGet, w.skylineURL()+"?since_gen="+strconv.FormatUint(c.cursor, 10), nil)
		if err == nil {
			err = json.Unmarshal(raw, &polls[i])
		}
		rs.EndWith(obs.Arg{Key: "changed", Value: strconv.FormatBool(polls[i].Changed)})
		if err != nil {
			return 0, err
		}
		c.cursor = polls[i].Gen
	}
	lat := time.Since(t0)

	w.mu.Lock()
	w.acks = append(w.acks, ack.Gen)
	w.mu.Unlock()
	if ack.Inserted != ins || ack.Deleted != del || ack.Missing != 0 {
		return 0, fmt.Errorf("ack %+v: want %d inserted, %d deleted, 0 missing", ack, ins, del)
	}
	if !polls[0].Changed || polls[0].Gen < ack.Gen {
		return 0, fmt.Errorf("first poll after gen %d: %+v", ack.Gen, polls[0].Gen)
	}
	prev := before
	for _, p := range polls {
		if p.Gen < prev || p.Changed != (p.Gen != prev) || p.Changed != (len(p.Skyline) > 0) {
			return 0, fmt.Errorf("poll since %d answered gen %d changed %v with %d skyline bytes", prev, p.Gen, p.Changed, len(p.Skyline))
		}
		prev = p.Gen
	}
	return lat, nil
}

// finish checks that every batch advanced the generation by exactly one and
// that the maintained skyline equals a from-scratch Compute over the seed
// plus every client's live rows. Client row sets are disjoint, so the
// order in which the daemon interleaved the batches does not matter.
func (w *churn) finish() error {
	acks := append([]uint64(nil), w.acks...)
	sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
	for i, g := range acks {
		if want := w.gen0 + uint64(i) + 1; g != want {
			return fmt.Errorf("acknowledged generations are not consecutive: position %d holds %d, want %d", i, g, want)
		}
	}
	body, err := do(w.c, http.MethodGet, w.skylineURL(), nil)
	if err != nil {
		return err
	}
	var got struct {
		Gen     uint64      `json:"gen"`
		Skyline [][]float64 `json:"skyline"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&got); err != nil {
		return err
	}
	if want := w.gen0 + uint64(len(acks)); got.Gen != want {
		return fmt.Errorf("final generation %d, want %d", got.Gen, want)
	}
	all := append([][]float64(nil), w.seed...)
	for _, c := range w.cl {
		all = append(all, c.live...)
	}
	ref, err := mrskyline.Compute(all, mrskyline.Options{})
	if err != nil {
		return err
	}
	if g, r := hashRows(got.Skyline), hashRows(ref.Skyline); g != r {
		return fmt.Errorf("maintained skyline has %d rows, Compute over seed+live rows has %d", g.n, r.n)
	}
	return nil
}

func (w *churn) walkInputs() walkInputs {
	return walkInputs{data: w.seed, scan: w.seed, sub: head(w.seed, 5000)}
}
