// Package baseline implements the MapReduce skyline algorithms the paper
// compares against:
//
//   - MR-BNL [Zhang, Zhou, Guan: Adapting skyline computation to the
//     MapReduce framework, DASFAA Workshops 2011]: each dimension is split
//     into two halves, yielding 2^d subspaces; mappers compute one BNL
//     local skyline per subspace; a single reducer merges the subspace
//     skylines and removes cross-subspace false positives using the
//     subspace codes.
//   - MR-Angle [Chen, Hwang, Wu: MapReduce skyline query processing with a
//     new angular partitioning approach, IPDPS Workshops 2012]: tuples are
//     partitioned by hyperspherical angles (adapting [Vlachou et al.,
//     SIGMOD 2008]); mappers compute one BNL local skyline per angular
//     partition; a single reducer merges everything with BNL. Angular
//     partitions cannot prune each other, but they slice the space so that
//     each partition's local skyline is small.
//
// MR-Bitmap is omitted for the same reason the paper omits it: it cannot
// handle continuous numeric domains.
package baseline

import (
	"context"
	"fmt"
	"time"

	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/skyline"
	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// Config parametrizes the baseline algorithms.
type Config struct {
	// Engine executes the MapReduce job; required. Any mapreduce.Executor
	// works: the in-process *mapreduce.Engine or rpcexec's multi-process
	// backend.
	Engine mapreduce.Executor
	// Ctx, when non-nil, bounds every job of the run (deadline or
	// cancellation; flows into mapreduce.Engine.RunContext). Nil means
	// context.Background().
	Ctx context.Context
	// NumMappers is the map task count; defaults to the cluster's total
	// slots.
	NumMappers int
	// AngularPartitions is the number of angular partitions MR-Angle aims
	// for; defaults to the mapper count, following the baseline paper's
	// "one partition per map slot" guidance.
	AngularPartitions int
	// Lo and Hi bound the data domain per dimension; both nil selects the
	// unit box [0,1)^d. MR-BNL splits each dimension at the domain
	// midpoint; MR-Angle measures angles from the domain origin.
	Lo, Hi []float64
}

func (c *Config) validate(d int) error {
	if c.Engine == nil {
		return fmt.Errorf("baseline: Config.Engine is required")
	}
	if (c.Lo == nil) != (c.Hi == nil) {
		return fmt.Errorf("baseline: Lo and Hi must both be set or both nil")
	}
	if c.Lo != nil && d > 0 && (len(c.Lo) != d || len(c.Hi) != d) {
		return fmt.Errorf("baseline: bounds dimensionality %d/%d does not match data d=%d", len(c.Lo), len(c.Hi), d)
	}
	return nil
}

// ctx resolves the run context.
func (c *Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// mid returns the per-dimension domain midpoints for d dimensions. Halving
// before adding is (lo + hi) / 2 wherever that sum is finite and normal,
// and stays finite where it overflows (bounds near ±MaxFloat64).
func (c *Config) mid(d int) []float64 {
	m := make([]float64, d)
	for k := range m {
		if c.Lo == nil {
			m[k] = 0.5
		} else {
			m[k] = c.Lo[k]/2 + c.Hi[k]/2
		}
	}
	return m
}

// origin returns the per-dimension domain origin for d dimensions.
func (c *Config) origin(d int) []float64 {
	o := make([]float64, d)
	if c.Lo != nil {
		copy(o, c.Lo)
	}
	return o
}

func (c *Config) mappers() int {
	if c.NumMappers > 0 {
		return c.NumMappers
	}
	return c.Engine.TotalSlots()
}

// Stats reports a baseline run.
type Stats struct {
	// Algorithm names the baseline.
	Algorithm string
	// Partitions is the number of data partitions used (2^d subspaces for
	// MR-BNL, angular cells for MR-Angle, unpruned quadtree leaves for
	// SKY-MR).
	Partitions int
	// SkylineSize is the global skyline cardinality.
	SkylineSize int
	// DominanceTests counts tuple-pair comparisons across all tasks.
	DominanceTests int64
	// ShuffleBytes is the shuffled key+value volume.
	ShuffleBytes int64
	// Total is the wall-clock duration of the run.
	Total time.Duration
	// SimulatedTotal is the simulated cluster time of the run; zero unless
	// the engine carries a mapreduce.SimConfig.
	SimulatedTotal time.Duration
}

// recordDominanceTests is where a task accounts for its kernel work, once,
// when it flushes: the job counter behind Stats.DominanceTests and the
// service-lifetime obs counter receive the same number from the one Count
// the task threaded through every window operation.
func recordDominanceTests(ctx *mapreduce.TaskContext, cnt *skyline.Count) {
	ctx.Counters.Add(mapreduce.CounterDominanceTests, cnt.DominanceTests)
	ctx.Trace.Metrics().Count(window.MetricDominanceTests, cnt.DominanceTests)
}

// getWindow returns the partition's columnar window from m, creating an
// empty one on first use.
func getWindow(m map[int]*window.Window, p, dim int) *window.Window {
	w := m[p]
	if w == nil {
		w = window.New(dim)
		m[p] = w
	}
	return w
}

// newPartitionMapper builds the shared baseline mapper: maintain one
// columnar local-skyline window per partition id (locate routes tuples to
// partitions) and emit (partition, window) on flush.
func newPartitionMapper(dim int, locate func(t tuple.Tuple) int) mapreduce.Mapper {
	windows := make(map[int]*window.Window)
	var cnt skyline.Count
	var inserts window.InsertSampler
	return mapreduce.MapperFuncs{
		MapFn: func(ctx *mapreduce.TaskContext, rec mapreduce.Record, _ mapreduce.Emitter) error {
			t, err := mapreduce.DecodeTupleRecord(rec)
			if err != nil {
				return err
			}
			inserts.Insert(ctx.Trace.Metrics(), getWindow(windows, locate(t), dim), t, &cnt)
			return nil
		},
		FlushFn: func(ctx *mapreduce.TaskContext, emit mapreduce.Emitter) error {
			recordDominanceTests(ctx, &cnt)
			var scratch []byte
			for _, w := range sortedWindows(windows) {
				scratch = tuple.AppendEncodeList(scratch[:0], w.win.Rows())
				emit(encodeKey(w.id), scratch)
			}
			return nil
		},
	}
}

// newSingleReducer builds the shared baseline reducer: merge the mappers'
// per-partition windows, then run the algorithm-specific global merge
// (finishReduce) and emit the skyline.
func newSingleReducer(dim int, finishReduce func(s map[int]*window.Window, cnt *skyline.Count) tuple.List) mapreduce.Reducer {
	s := make(map[int]*window.Window)
	var cnt skyline.Count
	var inserts window.InsertSampler
	return mapreduce.ReducerFuncs{
		ReduceFn: func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, _ mapreduce.Emitter) error {
			p, err := decodeKey(key)
			if err != nil {
				return err
			}
			w, reg := getWindow(s, p, dim), ctx.Trace.Metrics()
			for _, v := range values {
				l, _, err := tuple.DecodeList(v)
				if err != nil {
					return err
				}
				for _, t := range l {
					inserts.Insert(reg, w, t, &cnt)
				}
			}
			return nil
		},
		FlushFn: func(ctx *mapreduce.TaskContext, emit mapreduce.Emitter) error {
			doneMerge := ctx.Trace.Timed(ctx.Track, "merge", obs.CatAlgo, "algo.merge.ns")
			sky := finishReduce(s, &cnt)
			doneMerge()
			recordDominanceTests(ctx, &cnt)
			var scratch []byte
			for _, t := range sky {
				scratch = tuple.AppendEncode(scratch[:0], t)
				emit(nil, scratch)
			}
			return nil
		},
	}
}

// singleReducerFuncs wires the shared shape of MR-BNL and MR-Angle: mappers
// maintain one columnar local-skyline window per partition id and emit
// (partition, window); a single reducer merges and finishes. The
// finishReduce callback implements the algorithm-specific global merge.
func singleReducerFuncs(
	dim int,
	locate func(t tuple.Tuple) int,
	finishReduce func(s map[int]*window.Window, cnt *skyline.Count) tuple.List,
) *mapreduce.JobFuncs {
	return &mapreduce.JobFuncs{
		NewMapper:  func() mapreduce.Mapper { return newPartitionMapper(dim, locate) },
		NewReducer: func() mapreduce.Reducer { return newSingleReducer(dim, finishReduce) },
	}
}

// runSingleReducerJob executes a single-reducer job over data. A non-empty
// kind stamps the job for the process executor (its builder must then
// reconstruct funcs from spec; see kinds.go).
func runSingleReducerJob(cfg *Config, name string, data tuple.List, funcs *mapreduce.JobFuncs, kind string, spec []byte) (tuple.List, *mapreduce.Result, error) {
	job := &mapreduce.Job{
		Name:        name,
		Input:       mapreduce.TupleInput(data),
		NumMappers:  cfg.mappers(),
		NumReducers: 1,
		Kind:        kind,
		Spec:        spec,
		NewMapper:   funcs.NewMapper,
		NewReducer:  funcs.NewReducer,
	}
	res, err := cfg.Engine.RunContext(cfg.ctx(), job)
	if err != nil {
		return nil, nil, err
	}
	out := make(tuple.List, 0, len(res.Output))
	for _, rec := range res.Output {
		t, _, err := tuple.Decode(rec.Value)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, t)
	}
	return out, res, nil
}

type idWindow struct {
	id  int
	win *window.Window
}

// sortedWindows returns windows ordered by partition id for deterministic
// emission.
func sortedWindows(m map[int]*window.Window) []idWindow {
	out := make([]idWindow, 0, len(m))
	for id, w := range m {
		if w.Len() == 0 {
			continue
		}
		out = append(out, idWindow{id, w})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].id < out[j-1].id; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func buildStats(name string, partitions int, sky tuple.List, res *mapreduce.Result, start time.Time) *Stats {
	return &Stats{
		Algorithm:      name,
		Partitions:     partitions,
		SkylineSize:    len(sky),
		DominanceTests: res.Counters.Get(mapreduce.CounterDominanceTests),
		ShuffleBytes:   res.Counters.Get(mapreduce.CounterShuffleBytes),
		Total:          time.Since(start),
		SimulatedTotal: res.SimulatedTime,
	}
}
