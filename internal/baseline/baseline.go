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
	// slots. MR-Angle aims for as many angular partitions, following the
	// baseline paper's "one partition per map slot" guidance.
	NumMappers int
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

// bounds returns the configured domain for d dimensions, the unit box by
// default: MR-Angle measures angles from lo, MR-BNL halves it (mid).
func (c *Config) bounds(d int) (lo, hi tuple.Tuple) {
	lo, hi = make(tuple.Tuple, d), make(tuple.Tuple, d)
	for k := range hi {
		if c.Lo == nil {
			hi[k] = 1
		} else {
			lo[k], hi[k] = c.Lo[k], c.Hi[k]
		}
	}
	return lo, hi
}

// mid returns the per-dimension domain midpoints for d dimensions. Halving
// before adding is (lo + hi) / 2 wherever that sum is finite and normal,
// and stays finite where it overflows (bounds near ±MaxFloat64).
func (c *Config) mid(d int) []float64 {
	lo, m := c.bounds(d)
	for k := range m {
		m[k] = lo[k]/2 + m[k]/2
	}
	return m
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
	// MR-BNL, angular cells for MR-Angle).
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

// router sends a row to its partition.
type router func(t tuple.Tuple) int

// newPartitionMapper builds the one baseline mapper, a
// mapreduce.RowsMapper: it routes each row of its split to a partition,
// folds the row into that partition's columnar local-skyline window, which
// keeps the row itself, and emits (partition, the window's column list) per
// partition on flush.
func newPartitionMapper(dim int, route router) mapreduce.Mapper {
	windows := make(window.Map)
	var cnt skyline.Count
	var inserts window.InsertSampler
	return mapreduce.RowsMapperFuncs{
		MapRowsFn: func(ctx *mapreduce.TaskContext, rows [][]float64, _ mapreduce.Emitter) error {
			if len(rows[0]) != dim {
				return fmt.Errorf("baseline: tuple dimensionality %d does not match d=%d", len(rows[0]), dim)
			}
			reg := ctx.Trace.Metrics()
			for _, row := range rows {
				t := tuple.Tuple(row)
				inserts.Insert(reg, windows.Get(route(t), dim), t, &cnt)
			}
			return nil
		},
		FlushFn: func(ctx *mapreduce.TaskContext, emit mapreduce.Emitter) error {
			recordDominanceTests(ctx, &cnt)
			var scratch []byte
			for _, p := range windows.Sorted() {
				scratch = windows[p].AppendColumns(scratch[:0])
				emit(mapreduce.IntKey(p), scratch)
			}
			return nil
		},
	}
}

// newSingleReducer builds the shared baseline reducer: merge the mappers'
// per-partition windows, then run the algorithm-specific global merge
// (finishReduce) and emit the skyline.
func newSingleReducer(dim int, finishReduce func(s window.Map, cnt *skyline.Count) tuple.List) mapreduce.Reducer {
	s := make(window.Map)
	var cnt skyline.Count
	var inserts window.InsertSampler
	return mapreduce.ReducerFuncs{
		ReduceFn: func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, _ mapreduce.Emitter) error {
			p, err := mapreduce.ParseIntKey(key)
			if err != nil {
				return err
			}
			w, reg := s.Get(p, dim), ctx.Trace.Metrics()
			for _, v := range values {
				l, err := tuple.DecodeColumns(dim, v)
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
			emit(nil, tuple.EncodeList(sky))
			return nil
		},
	}
}

// singleReducerFuncs wires the shared shape of MR-BNL and MR-Angle: mappers
// route rows with route into one columnar local-skyline window per
// partition and emit (partition, window); a single reducer merges and
// finishes. The finishReduce callback implements the algorithm-specific
// global merge.
func singleReducerFuncs(dim int, route router, finishReduce func(s window.Map, cnt *skyline.Count) tuple.List) *mapreduce.JobFuncs {
	return &mapreduce.JobFuncs{
		NewMapper:  func() mapreduce.Mapper { return newPartitionMapper(dim, route) },
		NewReducer: func() mapreduce.Reducer { return newSingleReducer(dim, finishReduce) },
	}
}

// runSingleReducerJob executes a single-reducer job over in, stamped with
// kind and spec for the process executor (the kind's builder reconstructs
// funcs from spec; see kinds.go).
func runSingleReducerJob(cfg *Config, name string, in mapreduce.TupleRows, funcs *mapreduce.JobFuncs, kind string, spec []byte) (tuple.List, *mapreduce.Result, error) {
	job := &mapreduce.Job{
		Name:        name,
		Input:       in,
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
	out, err := tuple.DecodeColumns(len(in[0]), mapreduce.Values(res.Output)...)
	return out, res, err
}

// overList runs a baseline over a tuple list: data is checked first, as
// the rows entries check nothing, then handed to run as the job input in
// place (one slice of row headers, no values copied). No rows is an empty
// run of the baseline called name.
func overList(cfg Config, data tuple.List, name string, run func(Config, mapreduce.TupleRows) (tuple.List, *Stats, error)) (tuple.List, *Stats, error) {
	if err := data.Validate(); err != nil {
		return nil, nil, err
	}
	if len(data) == 0 {
		if err := cfg.validate(0); err != nil {
			return nil, nil, err
		}
		return nil, &Stats{Algorithm: name}, nil
	}
	rows := make(mapreduce.TupleRows, len(data))
	for i, t := range data {
		rows[i] = t
	}
	return run(cfg, rows)
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
