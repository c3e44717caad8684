package core

import (
	"fmt"
	"sync"
	"time"

	"mrskyline/internal/bitstring"
	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// GPSRS computes the skyline of data with MR-GPSRS (Section 4): grid
// partitioning, bitstring pruning, per-partition local skylines on the
// mappers (Algorithm 3) and a single reducer assembling the global skyline
// (Algorithm 6). It is the skyline job of MR-GPMRS with one bucket.
func GPSRS(cfg Config, data tuple.List) (tuple.List, *Stats, error) {
	return compute(cfg, data, AlgoGPSRS, 0)
}

// GPMRS computes the skyline of data with MR-GPMRS (Section 5): the local
// phase of Algorithm 8 on the mappers, independent partition groups
// (Algorithm 7) merged down to the reducer count (Section 5.4.1), and
// parallel reducers each finishing its groups independently (Algorithm 9),
// with replicated partitions output only by their designated responsible
// group (Section 5.4.2).
func GPMRS(cfg Config, data tuple.List) (tuple.List, *Stats, error) {
	return compute(cfg, data, AlgoGPMRS, 0)
}

// skylineRun executes the skyline job against an already-prepared grid and
// bitstring. multi selects MR-GPMRS, whose buckets are groups (the
// bitstring's independent groups) merged down to the reducer count;
// otherwise it runs MR-GPSRS, whose one bucket goes to one reducer.
func skylineRun(cfg Config, input mapreduce.Input, prep *BitstringResult, multi bool, groups []grid.Group, start time.Time) (tuple.List, *Stats, error) {
	g, bs := prep.Grid, prep.Bitstring
	stats := statsFromPrep("MR-GPSRS", prep)
	spec := skySpec{Grid: gridSpecOf(g), OneBucket: true}
	name, r := "mr-gpsrs", 1
	if multi {
		name, r = "mr-gpmrs", cfg.reducers()
		stats.Algorithm = "MR-GPMRS"
		// Driver-side view of the deterministic group structure, for stats.
		stats.Groups = len(groups)
		stats.MergedGroups = len(grid.MergeGroups(groups, r, cfg.Merge))
		spec.Merge, spec.OneBucket = int(cfg.Merge), false
	}

	skyStart := time.Now()
	funcs := skyFuncs(spec, g)
	job := &mapreduce.Job{
		Name:        name,
		Input:       input,
		NumMappers:  cfg.mappers(),
		NumReducers: r,
		Cache:       mapreduce.Cache{cacheKeyBitstring: bs.Encode()},
		Partition:   funcs.Partition,
		NewMapper:   funcs.NewMapper,
		NewReducer:  funcs.NewReducer,
	}
	markKind(job, KindSkyline, spec)
	res, err := cfg.Engine.RunContext(cfg.ctx(), job)
	if err != nil {
		return nil, nil, err
	}
	sky, err := decodeTupleOutput(res.Output)
	if err != nil {
		return nil, nil, err
	}
	finishStats(stats, res, sky, skyStart, start)
	return sky, stats, nil
}

// skyFuncs wires the skyline job's task functions from its spec, for the
// driver and for the KindSkyline builder alike, around the job's one window
// pool (DESIGN §11, "Window lifecycle") and its one bucket slot.
func skyFuncs(s skySpec, g *grid.Grid) *mapreduce.JobFuncs {
	s.pool, s.formed = new(window.Pool), new(bucketSlot)
	return &mapreduce.JobFuncs{
		NewMapper:  func() mapreduce.Mapper { return newSkyMapper(s, g) },
		NewReducer: func() mapreduce.Reducer { return newSkyReducer(s, g) },
		Partition:  bucketPartition,
	}
}

// bucketSlot holds a job's buckets, formed once by the first task that
// asks for them; every task of the job reads the same bitstring and
// reducer count, and none writes the buckets.
type bucketSlot struct {
	once    sync.Once
	buckets []grid.MergedGroup
}

// buckets returns the job's buckets, formed by its first task to ask.
func (s skySpec) buckets(g *grid.Grid, bs *bitstring.Bitstring, r int) []grid.MergedGroup {
	s.formed.once.Do(func() { s.formed.buckets = s.formBuckets(g, bs, r) })
	return s.formed.buckets
}

// formBuckets forms the skyline job's reducer buckets over the surviving
// partitions of bs: a pure function of the spec, bs and the reducer count
// r, so the driver, every mapper and every reducer form the same ones.
// MR-GPMRS merges the independent groups of Algorithm 7 down to r (Section
// 5.4.1). MR-GPSRS has Algorithm 3's single key: one bucket that holds, and
// outputs, every surviving partition. That is what MergeGroups yields at
// r = 1, without forming the groups.
func (s skySpec) formBuckets(g *grid.Grid, bs *bitstring.Bitstring, r int) []grid.MergedGroup {
	if !s.OneBucket {
		return grid.MergeGroups(g.IndependentGroups(bs), r, grid.MergeStrategy(s.Merge))
	}
	parts := bs.Indices()
	if len(parts) == 0 {
		return nil
	}
	all := make(map[int]bool, len(parts))
	for _, p := range parts {
		all[p] = true
	}
	return []grid.MergedGroup{{Partitions: parts, Responsible: all}}
}

// bucketPartition routes bucket IDs to reduce tasks. Bucket IDs are dense
// in [0, min(r, groups)), so identity routing sends bucket b to reduce task
// b (Algorithm 8's "i % r" with the merge step already applied).
func bucketPartition(key []byte, r int) int {
	b, err := mapreduce.ParseIntKey(key)
	if err != nil || b < 0 {
		return 0
	}
	return b % r
}

// newSkyMapper implements Algorithm 8: the local phase of Algorithm 3
// (lines 1–10) followed by forming the buckets (line 11) and sending each
// bucket's local skylines to its reducer as one record (lines 12–19).
func newSkyMapper(s skySpec, g *grid.Grid) mapreduce.Mapper {
	var (
		state *localState
		bs    *bitstring.Bitstring
	)
	return mapreduce.RowsMapperFuncs{
		MapRowsFn: func(ctx *mapreduce.TaskContext, rows [][]float64, _ mapreduce.Emitter) error {
			if state == nil {
				var err error
				bs, _, err = bitstring.Decode(ctx.Cache.MustGet(cacheKeyBitstring))
				if err != nil {
					return err
				}
				state = newLocalState(g, bs, s.pool)
			}
			return state.mapRows(ctx.Trace.Metrics(), rows)
		},
		FlushFn: func(ctx *mapreduce.TaskContext, emit mapreduce.Emitter) error {
			if state == nil {
				return nil // empty split contributes nothing
			}
			doneLocal := ctx.Trace.Timed(ctx.Track, "local-skyline", obs.CatAlgo, "algo.local_skyline.ns")
			w := state.finish()
			doneLocal()
			state.recordCounters(ctx, mapreduce.PhaseMap)
			// Line 11: the job's buckets, a pure function of the cached
			// bitstring and the reducer count, formed once per job.
			var scratch []byte
			for _, mg := range s.buckets(g, bs, ctx.NumReducers) {
				scratch = appendPartMap(scratch[:0], w, mg.Partitions)
				if len(scratch) <= 1 {
					continue // this mapper holds nothing for the bucket
				}
				emit(mapreduce.IntKey(mg.ID), scratch)
			}
			state.release(nil)
			return nil
		},
	}
}

// newSkyReducer implements Algorithm 9 for one reduce task, which is
// Algorithm 6 when the one bucket holds every surviving partition. The
// task's key is its bucket ID; the job's buckets, formed from the cached
// bitstring, also carry the responsible-partition designation of Section
// 5.4.2.
func newSkyReducer(s skySpec, g *grid.Grid) mapreduce.Reducer {
	group := partWindows{g: g}
	return mapreduce.ReducerFuncs{
		ReduceFn: func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emitter) error {
			defer ctx.Trace.Timed(ctx.Track, "merge", obs.CatAlgo, "algo.merge.ns")()
			b, err := mapreduce.ParseIntKey(key)
			if err != nil {
				return err
			}
			bs, _, err := bitstring.Decode(ctx.Cache.MustGet(cacheKeyBitstring))
			if err != nil {
				return err
			}
			buckets := s.buckets(g, bs, ctx.NumReducers)
			var mg *grid.MergedGroup
			for i := range buckets {
				if buckets[i].ID == b {
					mg = &buckets[i]
					break
				}
			}
			if mg == nil {
				return fmt.Errorf("core: reducer received unknown bucket %d", b)
			}
			// Lines 1–8: gather the mappers' runs per partition. Only what
			// the bucket outputs is decoded into tuples; the rest stays bytes.
			runs, raws := make(map[int][]tuple.List), make(map[int][][]byte)
			for _, v := range values {
				err := eachPart(v, func(p int, list []byte) error {
					if !mg.HasPartition(p) {
						return fmt.Errorf("core: bucket %d received foreign partition %d", b, p)
					}
					if !mg.Responsible[p] {
						raws[p] = append(raws[p], list)
						return nil
					}
					l, _, err := tuple.DecodeList(list)
					if err != nil {
						return fmt.Errorf("core: partition %d: %w", p, err)
					}
					if runs[p] == nil {
						runs[p] = make([]tuple.List, 0, len(values))
					}
					runs[p] = append(runs[p], l)
					return nil
				})
				if err != nil {
					return err
				}
			}
			// Section 5.4.2: merge what the bucket outputs; the rest filters,
			// columnarized from its runs' bytes.
			group.s = make(window.Map, len(runs)+len(raws))
			var raw []int
			var rawRuns [][][]byte
			for _, p := range mg.Partitions {
				if r, ok := runs[p]; ok {
					if err := group.mergeRuns(p, r); err != nil {
						return err
					}
				} else if r, ok := raws[p]; ok {
					raw, rawRuns = append(raw, p), append(rawRuns, r)
				}
			}
			ws, err := window.Dominators(g.Dim(), rawRuns)
			if err != nil {
				return fmt.Errorf("core: partition %d run out of score order", raw[len(ws)])
			}
			for i := range ws {
				group.s[raw[i]] = &ws[i]
			}
			// Lines 9–10: eliminate false positives within the bucket.
			group.comparePartitions(mg.Responsible)
			// Line 11 + Section 5.4.2: output only designated partitions. The
			// merged windows go on; the raw ones share one backing and do not.
			group.emitRows(emit, mg.Responsible)
			group.release(mg.Responsible)
			return nil
		},
		FlushFn: func(ctx *mapreduce.TaskContext, _ mapreduce.Emitter) error {
			group.recordCounters(ctx, mapreduce.PhaseReduce)
			return nil
		},
	}
}

// decodeTupleOutput parses reducer output records (one encoded tuple each).
func decodeTupleOutput(recs []mapreduce.Record) (tuple.List, error) {
	out := make(tuple.List, 0, len(recs))
	for _, rec := range recs {
		t, _, err := tuple.Decode(rec.Value)
		if err != nil {
			return nil, fmt.Errorf("core: decoding skyline output: %w", err)
		}
		out = append(out, t)
	}
	return out, nil
}

// statsFromPrep seeds a Stats from the bitstring phase.
func statsFromPrep(algo string, prep *BitstringResult) *Stats {
	return &Stats{
		Algorithm:           algo,
		PPD:                 prep.PPD,
		AutoPPD:             prep.AutoPPD,
		Partitions:          prep.Grid.NumPartitions(),
		NonEmpty:            prep.NonEmpty,
		Surviving:           prep.Bitstring.Count(),
		ShuffleBytes:        prep.Job.Counters.Get(mapreduce.CounterShuffleBytes),
		BitstringTime:       prep.Job.MapTime + prep.Job.ReduceTime,
		SimulatedTotal:      prep.Job.SimulatedTime,
		TaskFailures:        prep.Job.Counters.Get(mapreduce.CounterTaskFailures),
		SpeculativeLaunched: prep.Job.Counters.Get(mapreduce.CounterSpeculativeLaunched),
		SpeculativeWon:      prep.Job.Counters.Get(mapreduce.CounterSpeculativeWon),
		NodeFailures:        prep.Job.Counters.Get(mapreduce.CounterNodeFailures),
		ShuffleCorruptions:  prep.Job.Counters.Get(mapreduce.CounterShuffleCorruptions),
	}
}

// finishStats folds the skyline job's result into the Stats.
func finishStats(st *Stats, res *mapreduce.Result, sky tuple.List, skyStart, start time.Time) {
	st.SkylineSize = len(sky)
	st.MapperPartCmpMax = res.Counters.GetMax(counterPartCmpMapMax)
	st.ReducerPartCmpMax = res.Counters.GetMax(counterPartCmpReduceMax)
	st.DominanceTests = res.Counters.Get(mapreduce.CounterDominanceTests)
	st.ShuffleBytes += res.Counters.Get(mapreduce.CounterShuffleBytes)
	st.ReduceOutputRecords = res.Counters.Get(mapreduce.CounterReduceOutputRecords)
	st.TaskFailures += res.Counters.Get(mapreduce.CounterTaskFailures)
	st.SpeculativeLaunched += res.Counters.Get(mapreduce.CounterSpeculativeLaunched)
	st.SpeculativeWon += res.Counters.Get(mapreduce.CounterSpeculativeWon)
	st.NodeFailures += res.Counters.Get(mapreduce.CounterNodeFailures)
	st.ShuffleCorruptions += res.Counters.Get(mapreduce.CounterShuffleCorruptions)
	st.SkylineTime = time.Since(skyStart)
	st.Total = time.Since(start)
	st.SimulatedTotal += res.SimulatedTime
}
