package baseline

import (
	"fmt"
	"time"

	"mrskyline/internal/mapreduce"
	"mrskyline/internal/skyline"
	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// SKY-MR [Park, Min, Shim, PVLDB 2013] is the sampling-based MapReduce
// skyline algorithm the paper positions its bitstring against. It is
// implemented here as an extension baseline (the paper's experiments do
// not include it):
//
//  1. The driver draws a deterministic sample and builds a sky-quadtree
//     over it; leaves dominated by a sample point are pruned. The sample
//     ships to every task through the distributed cache — tasks rebuild
//     the identical quadtree locally, just as SKY-MR distributes its
//     quadtree.
//  2. Job 1 (local skyline): mappers route tuples to quadtree leaves,
//     skip pruned leaves, and keep one BNL window per leaf; reducers —
//     note: parallel, keyed by leaf — merge the mappers' windows into
//     per-leaf local skylines.
//  3. Job 2 (global skyline): every leaf's local skyline is checked
//     against the local skylines of leaves that could contain dominators
//     (region-level dominance test). Each leaf is finished by one
//     reducer, in parallel, and the union of survivors is the skyline.
//
// Unlike MR-GPMRS, SKY-MR needs the extra sampling pass, and its pruning
// depends on the sample's luck; unlike MR-BNL and MR-Angle, both of its
// jobs use parallel reducers.

// Default SKY-MR parameters.
const (
	// DefaultSampleSize is the sky-quadtree sample size.
	DefaultSampleSize = 512
	// DefaultQuadLeafCapacity stops splitting nodes holding at most this
	// many sample points.
	DefaultQuadLeafCapacity = 8
	// DefaultQuadMaxDepth bounds the quadtree height.
	DefaultQuadMaxDepth = 8
)

const cacheKeySample = "skymr-sample"

// SKYMR computes the skyline with the SKY-MR algorithm.
func SKYMR(cfg Config, data tuple.List) (tuple.List, *Stats, error) {
	start := time.Now()
	if err := data.Validate(); err != nil {
		return nil, nil, err
	}
	if err := cfg.validate(data.Dim()); err != nil {
		return nil, nil, err
	}
	if len(data) == 0 {
		return nil, &Stats{Algorithm: "SKY-MR"}, nil
	}
	d := data.Dim()
	lo, hi := cfg.bounds(d)

	// Deterministic sample: evenly strided over the input, so every task
	// (and every retry) sees the same quadtree.
	sampleSize := DefaultSampleSize
	if sampleSize > len(data) {
		sampleSize = len(data)
	}
	sample := make(tuple.List, sampleSize)
	for i := range sample {
		sample[i] = data[i*len(data)/sampleSize]
	}
	qt, err := buildQuadTree(sample, lo, hi, DefaultQuadLeafCapacity, DefaultQuadMaxDepth)
	if err != nil {
		return nil, nil, err
	}
	cache := mapreduce.Cache{cacheKeySample: tuple.EncodeList(sample)}
	reducers := cfg.Engine.TotalSlots()
	if reducers > qt.numLeaves() {
		reducers = qt.numLeaves()
	}

	rebuild := func(ctx *mapreduce.TaskContext) (*quadTree, error) {
		s, _, err := tuple.DecodeList(ctx.Cache.MustGet(cacheKeySample))
		if err != nil {
			return nil, err
		}
		return buildQuadTree(s, lo, hi, DefaultQuadLeafCapacity, DefaultQuadMaxDepth)
	}

	// ---- Job 1: per-leaf local skylines --------------------------------
	local := &mapreduce.Job{
		Name:        "sky-mr-local",
		Input:       mapreduce.TupleInput(data),
		NumMappers:  cfg.mappers(),
		NumReducers: reducers,
		Cache:       cache,
		NewMapper: func() mapreduce.Mapper {
			var (
				t       *quadTree
				windows map[int]*window.Window
				cnt     skyline.Count
				inserts window.InsertSampler
			)
			return mapreduce.MapperFuncs{
				MapFn: func(ctx *mapreduce.TaskContext, rec mapreduce.Record, _ mapreduce.Emitter) error {
					if t == nil {
						var err error
						if t, err = rebuild(ctx); err != nil {
							return err
						}
						windows = make(map[int]*window.Window)
					}
					tp, err := mapreduce.DecodeTupleRecord(rec)
					if err != nil {
						return err
					}
					leaf := t.locate(tp)
					if leaf.pruned {
						return nil
					}
					inserts.Insert(ctx.Trace.Metrics(), getWindow(windows, leaf.id, d), tp, &cnt)
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
		},
		NewReducer: func() mapreduce.Reducer {
			var cnt skyline.Count
			var inserts window.InsertSampler
			var scratch []byte
			return mapreduce.ReducerFuncs{
				ReduceFn: func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emitter) error {
					w, reg := window.New(d), ctx.Trace.Metrics()
					for _, v := range values {
						l, _, err := tuple.DecodeList(v)
						if err != nil {
							return err
						}
						for _, tp := range l {
							inserts.Insert(reg, w, tp, &cnt)
						}
					}
					scratch = tuple.AppendEncodeList(scratch[:0], w.Rows())
					emit(key, scratch)
					return nil
				},
				FlushFn: func(ctx *mapreduce.TaskContext, _ mapreduce.Emitter) error {
					recordDominanceTests(ctx, &cnt)
					return nil
				},
			}
		},
	}
	res1, err := cfg.Engine.RunContext(cfg.ctx(), local)
	if err != nil {
		return nil, nil, err
	}

	// ---- Job 2: global skyline ------------------------------------------
	// Input records are (leaf, local skyline). Each mapper forwards every
	// leaf's skyline to that leaf's reducer as candidates, and to the
	// reducers of all leaves the region could dominate as filters.
	const (
		tagCandidate byte = 'C'
		tagFilter    byte = 'F'
	)
	global := &mapreduce.Job{
		Name:        "sky-mr-global",
		Input:       mapreduce.RecordsInput(res1.Output),
		NumMappers:  cfg.mappers(),
		NumReducers: reducers,
		Cache:       cache,
		NewMapper: func() mapreduce.Mapper {
			var t *quadTree
			var scratch []byte
			return mapreduce.MapperFuncs{
				MapFn: func(ctx *mapreduce.TaskContext, rec mapreduce.Record, emit mapreduce.Emitter) error {
					if t == nil {
						var err error
						if t, err = rebuild(ctx); err != nil {
							return err
						}
					}
					a, err := decodeKey(rec.Key)
					if err != nil {
						return err
					}
					if a < 0 || a >= t.numLeaves() {
						return fmt.Errorf("baseline: unknown leaf %d in SKY-MR job 2", a)
					}
					scratch = append(scratch[:0], tagCandidate)
					scratch = append(scratch, rec.Value...)
					emit(rec.Key, scratch)
					for b := 0; b < t.numLeaves(); b++ {
						if t.mayDominate(a, b) && !t.leaves[b].pruned {
							scratch = append(scratch[:0], tagFilter)
							scratch = append(scratch, rec.Value...)
							emit(encodeKey(b), scratch)
						}
					}
					return nil
				},
			}
		},
		NewReducer: func() mapreduce.Reducer {
			var cnt skyline.Count
			return mapreduce.ReducerFuncs{
				ReduceFn: func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emitter) error {
					var candidates tuple.List
					var filters tuple.List
					for _, v := range values {
						if len(v) == 0 {
							return fmt.Errorf("baseline: empty SKY-MR value")
						}
						l, _, err := tuple.DecodeList(v[1:])
						if err != nil {
							return err
						}
						switch v[0] {
						case tagCandidate:
							candidates = append(candidates, l...)
						case tagFilter:
							filters = append(filters, l...)
						default:
							return fmt.Errorf("baseline: unknown SKY-MR tag %q", v[0])
						}
					}
					var scratch []byte
					for _, tp := range skyline.Filter(candidates, filters, &cnt) {
						scratch = tuple.AppendEncode(scratch[:0], tp)
						emit(nil, scratch)
					}
					return nil
				},
				FlushFn: func(ctx *mapreduce.TaskContext, _ mapreduce.Emitter) error {
					recordDominanceTests(ctx, &cnt)
					return nil
				},
			}
		},
	}
	res2, err := cfg.Engine.RunContext(cfg.ctx(), global)
	if err != nil {
		return nil, nil, err
	}

	sky := make(tuple.List, 0, len(res2.Output))
	for _, rec := range res2.Output {
		tp, _, err := tuple.Decode(rec.Value)
		if err != nil {
			return nil, nil, err
		}
		sky = append(sky, tp)
	}
	unpruned := 0
	for _, l := range qt.leaves {
		if !l.pruned {
			unpruned++
		}
	}
	return sky, &Stats{
		Algorithm:      "SKY-MR",
		Partitions:     unpruned,
		SkylineSize:    len(sky),
		DominanceTests: res1.Counters.Get(counterDominanceTests) + res2.Counters.Get(counterDominanceTests),
		ShuffleBytes:   res1.Counters.Get(mapreduce.CounterShuffleBytes) + res2.Counters.Get(mapreduce.CounterShuffleBytes),
		Total:          time.Since(start),
		SimulatedTotal: res1.SimulatedTime + res2.SimulatedTime,
	}, nil
}

// bounds returns the configured domain (unit box by default).
func (c *Config) bounds(d int) (lo, hi tuple.Tuple) {
	lo = make(tuple.Tuple, d)
	hi = make(tuple.Tuple, d)
	for k := 0; k < d; k++ {
		if c.Lo == nil {
			hi[k] = 1
		} else {
			lo[k], hi[k] = c.Lo[k], c.Hi[k]
		}
	}
	return lo, hi
}
