package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	mrskyline "mrskyline"
	"mrskyline/internal/cluster"
	"mrskyline/internal/core"
	"mrskyline/internal/costmodel"
	"mrskyline/internal/grid"
	"mrskyline/internal/maintain"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/rpcexec"
	"mrskyline/internal/skyline"
	"mrskyline/internal/skyline/window"
	"mrskyline/internal/spill"
	"mrskyline/internal/tuple"
	"mrskyline/internal/wal"
)

// The layer walk measures every layer from outside, by timing calls into
// its public functions on the workload's own inputs. Nothing inside the
// program is instrumented; the spans are recorded here, one per call, under
// one parent span per layer on the track layerwalk/<workload>.

// walkInputs is what a workload hands the walk: its main dataset, the
// dataset its constrained scan runs over, and the one it projects.
type walkInputs struct {
	data, scan, sub [][]float64
}

const (
	// sampleRows caps the rows used where a layer's cost grows faster than
	// linearly or where two backends run the same job side by side.
	sampleRows = 20000
	// walkBatches is the fixed number of delta batches the maintain and wal
	// walks apply: fixed, not time-budgeted, so their counts repeat exactly.
	walkBatches = 256
)

type walker struct {
	cfg    passConfig
	tr     *obs.Tracer
	track  string
	out    map[string]float64
	budget time.Duration // per timed call series

	in        walkInputs
	sample    [][]float64 // the first sampleRows rows of in.data
	data, smp tuple.List  // in.data and sample as tuples
	dim       int
	lo, hi    tuple.Tuple
	encoded   int                // bytes of the binary tuple encoding of data
	batches   [][]maintain.Delta // see buildBatches
	bodies    [][]byte           // the same batches as POST …/deltas bodies
}

// layerWalk fills out with every per-layer metric but trace.overhead_ratio.
func layerWalk(cfg passConfig, in walkInputs, tr *obs.Tracer, out map[string]float64) error {
	w := &walker{
		cfg: cfg, tr: tr, out: out, in: in,
		track:  "layerwalk/" + cfg.Workload,
		budget: 400 * time.Millisecond,
		sample: head(in.data, sampleRows),
	}
	if cfg.Tiny {
		w.budget = 10 * time.Millisecond
	}
	w.data, w.smp = toList(in.data), toList(w.sample)
	w.dim = w.data.Dim()
	w.lo, w.hi = bounds(w.data)
	if err := w.buildBatches(); err != nil {
		return err
	}
	for _, layer := range []struct {
		name string
		fn   func() error
	}{
		{"datagen", w.datagen}, {"tuple", w.tuple}, {"core", w.core}, {"window", w.window},
		{"mrskyline", w.mrskyline}, {"obs", w.obs}, {"mapreduce", w.mapreduce}, {"cluster", w.cluster},
		{"spill", w.spill}, {"rpcexec", w.rpcexec}, {"maintain", w.maintain}, {"wal", w.wal},
		{"skylined", w.skylined},
	} {
		sp := tr.Start(w.track, layer.name, "layer")
		err := layer.fn()
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", layer.name, err)
		}
	}
	return nil
}

// bounds is the half-open bounding box mrskyline.Compute builds its grid
// over: the observed minimum and maximum, widened where they coincide.
func bounds(data tuple.List) (lo, hi tuple.Tuple) {
	lo, hi = data[0].Clone(), data[0].Clone()
	for _, t := range data[1:] {
		lo.MinWith(t)
		hi.MaxWith(t)
	}
	for k := range hi {
		if hi[k] <= lo[k] {
			hi[k] = lo[k] + 1
		}
	}
	return lo, hi
}

// reps times fn (which returns the duration of the part it wants counted)
// at least three times and until the budget is spent, one span per call, and
// returns the median in seconds.
func (w *walker) reps(name string, fn func() (time.Duration, error)) (float64, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < 3 || (time.Since(start) < w.budget && len(ds) < 1000) {
		sp := w.tr.Start(w.track, name, "call")
		d, err := fn()
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, d.Seconds())
	}
	return median(ds), nil
}

// timed adapts a function with nothing to exclude to reps.
func timed(fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	}
}

// pair times a and b alternately (a, b, a, b, …), one span per call, so
// that drift of the machine hits both sides alike, and returns both medians
// in seconds.
func (w *walker) pair(aName string, a func() error, bName string, b func() error) (float64, float64, error) {
	var as, bs []float64
	start := time.Now()
	for len(as) < 3 || (time.Since(start) < 2*w.budget && len(as) < 1000) {
		for _, side := range []struct {
			name string
			fn   func() error
			dst  *[]float64
		}{{aName, a, &as}, {bName, b, &bs}} {
			sp := w.tr.Start(w.track, side.name, "call")
			t0 := time.Now()
			err := side.fn()
			d := time.Since(t0)
			sp.End()
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", side.name, err)
			}
			*side.dst = append(*side.dst, d.Seconds())
		}
	}
	return median(as), median(bs), nil
}

var sink int // keeps the compiler from dropping measured loops

func (w *walker) datagen() error {
	path := filepath.Join(w.cfg.Tmp, "walk.csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	if err := mrskyline.WriteCSV(f, w.in.data); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	s, err := w.reps("ReadCSV", timed(func() error {
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		rows, err := mrskyline.ReadCSV(in)
		sink += len(rows)
		return err
	}))
	w.out["datagen.readcsv_ns_per_row"] = s * 1e9 / float64(len(w.in.data))
	return err
}

func (w *walker) tuple() error {
	n := float64(len(w.data))
	var buf []byte
	s, err := w.reps("AppendEncode", timed(func() error {
		buf = buf[:0]
		for _, t := range w.data {
			buf = tuple.AppendEncode(buf, t)
		}
		return nil
	}))
	if err != nil {
		return err
	}
	w.encoded = len(buf)
	w.out["tuple.encode_ns_per_tuple"] = s * 1e9 / n
	s, err = w.reps("Decode", timed(func() error {
		for off := 0; off < len(buf); {
			t, k, err := tuple.Decode(buf[off:])
			if err != nil {
				return err
			}
			sink += len(t)
			off += k
		}
		return nil
	}))
	w.out["tuple.decode_ns_per_tuple"] = s * 1e9 / n
	return err
}

func newEngine() (*mapreduce.Engine, error) {
	c, err := cluster.Uniform(8, 2) // mrskyline.Options{}'s default shape
	if err != nil {
		return nil, err
	}
	return mapreduce.NewEngine(c), nil
}

func (w *walker) coreConfig(eng mapreduce.Executor) core.Config {
	return core.Config{Engine: eng, Lo: w.lo, Hi: w.hi}
}

// core walks both jobs of a Compute — PPD selection with the bitstring,
// then MR-GPMRS — and, with the grid the first one chose, grid.Locate.
func (w *walker) core() error {
	input := mapreduce.TupleInput(w.data)
	var prep *core.BitstringResult
	s, err := w.reps("ChoosePPDAndBitstring", func() (time.Duration, error) {
		eng, err := newEngine()
		if err != nil {
			return 0, err
		}
		cfg := w.coreConfig(eng)
		t0 := time.Now()
		prep, err = core.ChoosePPDAndBitstring(&cfg, w.dim, len(w.data), input, false)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	w.out["core.bitstring_job_ms"] = s * 1e3
	w.out["core.pruned_cell_ratio"] = 1 - float64(prep.Bitstring.Count())/float64(max(prep.NonEmpty, 1))

	s, err = w.reps("grid.Locate", timed(func() error {
		g, err := grid.NewWithBounds(w.dim, prep.PPD, w.lo, w.hi)
		if err != nil {
			return err
		}
		for _, t := range w.data {
			sink += g.Locate(t)
		}
		return nil
	}))
	if err != nil {
		return err
	}
	w.out["grid.locate_ns_per_tuple"] = s * 1e9 / float64(len(w.data))

	var st *core.Stats
	compute, gpmrs, err := w.pair(
		"Compute", func() error {
			res, err := mrskyline.Compute(w.in.data, mrskyline.Options{})
			if err == nil {
				sink += len(res.Skyline)
			}
			return err
		},
		"core.GPMRS", func() error {
			eng, err := newEngine()
			if err != nil {
				return err
			}
			_, st, err = core.GPMRS(w.coreConfig(eng), w.data)
			return err
		})
	if err != nil {
		return err
	}
	w.out["core.gpmrs_ms"] = gpmrs * 1e3
	w.out["mrskyline.glue_ms"] = (compute - gpmrs) * 1e3
	w.out["core.dominance_tests_per_op"] = float64(st.DominanceTests)
	w.out["core.shuffle_bytes_per_op"] = float64(st.ShuffleBytes)
	w.out["core.shuffle_replication"] = float64(st.ShuffleBytes) / float64(w.encoded)
	w.out["core.reducer_partcmp_vs_model"] = float64(st.ReducerPartCmpMax) / float64(max(costmodel.KappaReducer(st.PPD, w.dim), 1))
	return nil
}

func (w *walker) window() error {
	var cnt window.Count
	s, err := w.reps("Window.Insert", timed(func() error {
		cnt = window.Count{}
		win := window.New(w.dim)
		for _, t := range w.smp {
			win.Insert(t, &cnt)
		}
		sink += win.Len()
		return nil
	}))
	if err != nil {
		return err
	}
	n := float64(len(w.smp))
	w.out["window.insert_ns_per_tuple"] = s * 1e9 / n
	w.out["window.tests_per_tuple"] = float64(cnt.DominanceTests) / n

	half := len(w.smp) / 2
	a, b := skyline.SFS(w.smp[:half], nil), skyline.SFS(w.smp[half:], nil)
	by := window.FromList(w.dim, b)
	s, err = w.reps("Window.FilterBy", func() (time.Duration, error) {
		win := window.FromList(w.dim, a)
		t0 := time.Now()
		win.FilterBy(by, nil)
		d := time.Since(t0)
		sink += win.Len()
		return d, nil
	})
	w.out["window.filterby_ms"] = s * 1e3
	return err
}

func (w *walker) mrskyline() error {
	// A box no row falls into: the call is validation plus the O(N) filter.
	box := make([]mrskyline.Range, len(w.in.scan[0]))
	for k := range box {
		box[k] = mrskyline.Unbounded()
	}
	box[0] = mrskyline.Range{Min: 1e300, Max: 1e301}
	s, err := w.reps("ComputeConstrained(empty box)", timed(func() error {
		res, err := mrskyline.ComputeConstrained(w.in.scan, box, mrskyline.Options{})
		if err == nil && len(res.Skyline) != 0 {
			err = errors.New("empty box selected rows")
		}
		return err
	}))
	w.out["mrskyline.constrained_scan_ns_per_row"] = s * 1e9 / float64(len(w.in.scan))
	return err
}

func (w *walker) obs() error {
	svc, err := mrskyline.NewService(mrskyline.ServiceConfig{})
	if err != nil {
		return err
	}
	defer svc.Close()
	service, plain, err := w.pair(
		"Service.Compute", func() error {
			_, err := svc.Compute(context.Background(), w.sample, mrskyline.Options{})
			return err
		},
		"Compute(sample)", func() error {
			_, err := mrskyline.Compute(w.sample, mrskyline.Options{})
			return err
		})
	w.out["obs.service_overhead_ratio"] = service / plain
	return err
}

func (w *walker) mapreduce() error {
	eng, err := newEngine()
	if err != nil {
		return err
	}
	noop := &mapreduce.Job{
		Name:        "walk-empty",
		Input:       mapreduce.RecordsInput(make([]mapreduce.Record, 16)),
		NumMappers:  16,
		NumReducers: 1,
		NewMapper:   func() mapreduce.Mapper { return mapreduce.MapperFuncs{} },
		NewReducer:  func() mapreduce.Reducer { return mapreduce.ReducerFuncs{} },
	}
	s, err := w.reps("Engine.Run(empty)", timed(func() error { _, err := eng.Run(noop); return err }))
	if err != nil {
		return err
	}
	w.out["mapreduce.empty_job_us"] = s * 1e6

	s, err = w.reps("TupleInput.Splits", timed(func() error {
		splits, err := mapreduce.TupleInput(w.data).Splits(16)
		sink += len(splits)
		return err
	}))
	if err != nil {
		return err
	}
	w.out["mapreduce.tupleinput_ns_per_tuple"] = s * 1e9 / float64(len(w.data))

	// Identity job: every encoded tuple crosses the shuffle once, keyed by
	// its own leading bytes, to 8 reducers that drop it.
	identity := &mapreduce.Job{
		Name:        "walk-shuffle",
		Input:       mapreduce.TupleInput(w.data),
		NumReducers: 8,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFuncs{MapFn: func(_ *mapreduce.TaskContext, rec mapreduce.Record, emit mapreduce.Emitter) error {
				emit(rec.Value[:min(9, len(rec.Value))], rec.Value)
				return nil
			}}
		},
		NewReducer: func() mapreduce.Reducer { return mapreduce.ReducerFuncs{} },
	}
	s, err = w.reps("Engine.Run(identity)", timed(func() error { _, err := eng.Run(identity); return err }))
	w.out["mapreduce.shuffle_mb_s"] = float64(w.encoded) / 1e6 / s
	return err
}

func (w *walker) cluster() error {
	c, err := cluster.Uniform(8, 2)
	if err != nil {
		return err
	}
	tasks := make([]cluster.Task, 256)
	for i := range tasks {
		tasks[i] = cluster.Task{Name: "noop", Run: func(string, int) error { return nil }}
	}
	s, err := w.reps("Cluster.Run(256 no-ops)", timed(func() error { return c.Run(tasks, 1, nil) }))
	w.out["cluster.noop_task_us"] = s * 1e6 / float64(len(tasks))
	return err
}

// spill writes the encoded dataset through one budgeted Writer and merges
// the runs back, then runs one Compute with and without a spill budget.
func (w *walker) spill() error {
	dir := filepath.Join(w.cfg.Tmp, "spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	input := mapreduce.TupleInput(w.data).Records
	var mergeS []float64
	var peak int64
	write, err := w.reps("spill write+merge", func() (time.Duration, error) {
		cfg := &spill.Config{Dir: dir, Budget: 256 << 10, Stats: &spill.Stats{}}
		sp := w.tr.Start(w.track, "spill.Writer", "call")
		t0 := time.Now()
		wr := spill.NewWriter(cfg, "walk", 0)
		for _, rec := range input {
			if err := wr.Add(rec.Value[:min(9, len(rec.Value))], rec.Value); err != nil {
				return 0, err
			}
		}
		runs, err := wr.Finish()
		written := time.Since(t0)
		sp.End()
		if err != nil {
			return 0, err
		}
		sp = w.tr.Start(w.track, "spill.MergeTree+Merger", "call")
		defer sp.End()
		t0 = time.Now()
		final, temps, err := spill.MergeTree(cfg, dir, "walk", runs)
		if err != nil {
			return 0, err
		}
		m, err := spill.NewMerger(cfg, final)
		if err != nil {
			return 0, err
		}
		n := 0
		for {
			_, _, err := m.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			n++
		}
		m.Close()
		mergeS = append(mergeS, time.Since(t0).Seconds())
		if n != len(input) {
			return 0, fmt.Errorf("merge returned %d of %d records", n, len(input))
		}
		peak = cfg.Stats.PeakResident()
		for _, rf := range runs {
			os.Remove(rf.Path)
		}
		for _, p := range temps {
			os.Remove(p)
		}
		return written, nil
	})
	if err != nil {
		return err
	}
	payload := float64(w.encoded+len(input)*9) / 1e6 // keys are 9 bytes
	w.out["spill.write_mb_s"] = payload / write
	w.out["spill.merge_mb_s"] = payload / median(mergeS)
	w.out["spill.peak_resident_mb"] = float64(peak) / (1 << 20)

	spilled, resident, err := w.pair(
		"Compute(SpillBudget 1MiB)", func() error {
			_, err := mrskyline.Compute(w.sample, mrskyline.Options{SpillBudget: 1 << 20, SpillDir: dir})
			return err
		},
		"Compute(sample)", func() error {
			_, err := mrskyline.Compute(w.sample, mrskyline.Options{})
			return err
		})
	w.out["spill.job_slowdown_ratio"] = spilled / resident
	return err
}

func (w *walker) rpcexec() error {
	pe, err := rpcexec.New(rpcexec.Config{Workers: 2})
	if err != nil {
		return err
	}
	defer pe.Close()
	remote, local, err := w.pair(
		"core.GPMRS(rpcexec, 2 workers)", func() error {
			_, _, err := core.GPMRS(w.coreConfig(pe), w.smp)
			return err
		},
		"core.GPMRS(sample)", func() error {
			eng, err := newEngine()
			if err != nil {
				return err
			}
			_, _, err = core.GPMRS(w.coreConfig(eng), w.smp)
			return err
		})
	w.out["rpcexec.job_slowdown_ratio"] = remote / local
	return err
}

// buildBatches builds walkBatches delta batches shaped like serve-churn's: 64
// deltas each, the first eight insert-only, the rest half deletes of the
// oldest rows inserted before. Fresh rows are the dataset's own rows moved
// by a per-row offset, so they follow its distribution without being
// duplicates. Each batch is kept as maintain.Deltas and as the body of a
// POST …/deltas request.
func (w *walker) buildBatches() error {
	c := &churnClient{}
	for i := 0; i < walkBatches*deltasPerBatch; i++ {
		src := w.in.data[i%len(w.in.data)]
		row := make([]float64, len(src))
		for k, v := range src {
			row[k] = v + (w.hi[k]-w.lo[k])*1e-7*float64(i%97+1)
		}
		c.pool = append(c.pool, row)
	}
	for len(w.batches) < walkBatches {
		pub, _, _ := c.nextBatch()
		body, err := json.Marshal(map[string]any{"deltas": pub})
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, body)
		batch := make([]maintain.Delta, len(pub))
		for i, d := range pub {
			batch[i] = maintain.Delta{Op: maintain.OpInsert, Row: d.Row}
			if d.Op == mrskyline.DeltaDelete {
				batch[i].Op = maintain.OpDelete
			}
		}
		w.batches = append(w.batches, batch)
	}
	return nil
}

// seedList returns a fresh list header over the dataset's rows: maintain.New
// takes ownership of the list it is given, and never writes to the rows.
func (w *walker) seedList() tuple.List { return append(tuple.List(nil), w.data...) }

func (w *walker) maintain() error {
	var m *maintain.Maintained
	s, err := w.reps("maintain.New", func() (time.Duration, error) {
		seed := w.seedList()
		t0 := time.Now()
		var err error
		m, err = maintain.New(seed, maintain.Config{})
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	w.out["maintain.seed_ms"] = s * 1e3

	before := m.Stats()
	var applyS []float64
	sp := w.tr.Start(w.track, "Maintained.Apply x"+strconv.Itoa(walkBatches), "call")
	for _, b := range w.batches {
		t0 := time.Now()
		if _, err := m.Apply(b); err != nil {
			return err
		}
		applyS = append(applyS, time.Since(t0).Seconds())
	}
	sp.End()
	after := m.Stats()
	w.out["maintain.apply_us_per_delta"] = median(applyS) * 1e6 / deltasPerBatch
	w.out["maintain.cell_rebuilds_per_batch"] = float64(after.CellRebuilds-before.CellRebuilds) / walkBatches
	w.out["maintain.tests_per_delta"] = float64(after.DominanceTests-before.DominanceTests) / (walkBatches * deltasPerBatch)

	const loads = 100000
	s, err = w.reps("Maintained.Snapshot x"+strconv.Itoa(loads), timed(func() error {
		for i := 0; i < loads; i++ {
			sink += len(m.Snapshot().Skyline)
		}
		return nil
	}))
	w.out["maintain.snapshot_ns"] = s * 1e9 / loads
	return err
}

// wal applies the same batches to a durable handle (fsync before every
// acknowledgement, no automatic checkpoint) and to a memory-only twin,
// alternately; abandons the handle as a crash would and times recovery
// replaying all of them; then times a checkpoint.
func (w *walker) wal() error {
	dir := filepath.Join(w.cfg.Tmp, "wal")
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	opts := wal.Options{Sync: wal.SyncAlways, CheckpointEvery: -1, Metrics: reg}
	d, err := wal.Create(dir, w.seedList(), maintain.Config{}, nil, opts)
	if err != nil {
		return err
	}
	defer func() { d.Abandon() }()
	twin, err := maintain.New(w.seedList(), maintain.Config{})
	if err != nil {
		return err
	}
	var durS, memS []float64
	sp := w.tr.Start(w.track, "Durable.Apply / Maintained.Apply x"+strconv.Itoa(walkBatches), "call")
	for _, b := range w.batches {
		t0 := time.Now()
		if _, err := d.Apply(b); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := twin.Apply(b); err != nil {
			return err
		}
		durS = append(durS, t1.Sub(t0).Seconds())
		memS = append(memS, time.Since(t1).Seconds())
	}
	sp.End()
	w.out["wal.apply_overhead_us_per_batch"] = (median(durS) - median(memS)) * 1e6
	w.out["wal.bytes_per_delta"] = float64(reg.Counter("wal.append.bytes")) / (walkBatches * deltasPerBatch)

	s, err := w.reps("wal.Recover", func() (time.Duration, error) {
		if err := d.Abandon(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		var err error
		d, err = wal.Recover(dir, opts)
		if err != nil {
			return 0, err
		}
		el := time.Since(t0)
		if got := d.Recovery().ReplayedRecords; got != walkBatches {
			return 0, fmt.Errorf("recovery replayed %d batches, want %d", got, walkBatches)
		}
		return el, nil
	})
	if err != nil {
		return err
	}
	w.out["wal.recover_ms"] = s * 1e3
	if g, want := hashRows(fromList(d.Maintained().Snapshot().Skyline)), hashRows(fromList(twin.Snapshot().Skyline)); g != want {
		return errors.New("recovered skyline differs from the memory-only twin's")
	}
	s, err = w.reps("Durable.Checkpoint", timed(d.Checkpoint))
	w.out["wal.checkpoint_ms"] = s * 1e3
	return err
}

// skylined walks the daemon: one request of every kind the serve workloads
// send, on this workload's inputs, from a single client.
func (w *walker) skylined() error {
	c := httpClient(1)
	d, err := startDaemon(c, w.cfg.Skylined, "-datadir", filepath.Join(w.cfg.Tmp, "walk-datadir"), "-walsync", "always")
	if err != nil {
		return err
	}
	defer d.kill()
	const maint = "walk"
	for _, up := range []map[string]any{
		{"name": "sky", "data": w.sample},
		{"name": "scan", "data": w.in.scan},
		{"name": "sub", "data": w.in.sub},
		{"name": maint, "data": w.in.data, "maintain": true},
	} {
		body, err := json.Marshal(up)
		if err != nil {
			return err
		}
		if _, err := do(c, http.MethodPost, d.base+"/v1/datasets", body); err != nil {
			return err
		}
	}
	inline, err := json.Marshal(map[string]any{"data": head(w.in.data, 2000), "algorithm": "MR-GPSRS"})
	if err != nil {
		return err
	}
	subDims := fmt.Sprintf("[0,%d]", len(w.in.sub[0])-1)
	var respBytes int
	post := func(kind, path string, body []byte) error {
		s, err := w.reps(kind, timed(func() error {
			out, err := do(c, http.MethodPost, d.base+path, body)
			respBytes = len(out)
			return err
		}))
		w.out["skylined."+kind+"_ms"] = s * 1e3
		w.out["skylined.response_kb_per_op"] += float64(respBytes) / 1024
		return err
	}
	for _, r := range []struct {
		kind, path string
		body       []byte
	}{
		{"skyline_dataset", "/v1/skyline", []byte(`{"dataset":"sky"}`)},
		{"constrained_catalog", "/v1/constrained", []byte(`{"dataset":"scan","constraints":` + boxJSON(len(w.in.scan[0])) + `}`)},
		{"subspace", "/v1/subspace", []byte(`{"dataset":"sub","dims":` + subDims + `}`)},
		{"skyline_inline", "/v1/skyline", inline},
	} {
		if err := post(r.kind, r.path, r.body); err != nil {
			return err
		}
	}

	// HTTP+JSON overhead: the same rows through the daemon and through an
	// in-process Service, alternately.
	svc, err := mrskyline.NewService(mrskyline.ServiceConfig{})
	if err != nil {
		return err
	}
	defer svc.Close()
	viaHTTP, inProc, err := w.pair(
		"POST /v1/skyline", func() error {
			_, err := do(c, http.MethodPost, d.base+"/v1/skyline", []byte(`{"dataset":"sky"}`))
			return err
		},
		"Service.Compute(sample)", func() error {
			_, err := svc.Compute(context.Background(), w.sample, mrskyline.Options{})
			return err
		})
	if err != nil {
		return err
	}
	w.out["skylined.http_overhead_ms"] = (viaHTTP - inProc) * 1e3

	// One churn session per batch: post it, read the changed skyline, poll
	// once more for the unchanged answer.
	url := d.base + "/v1/datasets/" + maint
	var postS, changedS, pollS []float64
	var gen uint64 = 1
	var ackB, changedB, pollB int
	sp := w.tr.Start(w.track, "churn sessions x"+strconv.Itoa(walkBatches), "call")
	for _, body := range w.bodies {
		t0 := time.Now()
		ack, err := do(c, http.MethodPost, url+"/deltas", body)
		if err != nil {
			return err
		}
		t1 := time.Now()
		changed, err := do(c, http.MethodGet, url+"/skyline?since_gen="+strconv.FormatUint(gen, 10), nil)
		if err != nil {
			return err
		}
		t2 := time.Now()
		gen++
		poll, err := do(c, http.MethodGet, url+"/skyline?since_gen="+strconv.FormatUint(gen, 10), nil)
		if err != nil {
			return err
		}
		pollS = append(pollS, time.Since(t2).Seconds())
		postS = append(postS, t1.Sub(t0).Seconds())
		changedS = append(changedS, t2.Sub(t1).Seconds())
		ackB, changedB, pollB = len(ack), len(changed), len(poll)
	}
	sp.End()
	w.out["skylined.deltas_post_ms"] = median(postS) * 1e3
	w.out["skylined.skyline_changed_ms"] = median(changedS) * 1e3
	w.out["skylined.poll_unchanged_us"] = median(pollS) * 1e6
	w.out["skylined.response_kb_per_op"] += float64(ackB+changedB+pollB) / 1024
	return nil
}
