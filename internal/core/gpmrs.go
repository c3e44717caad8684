package core

import (
	"fmt"
	"time"

	"mrskyline/internal/bitstring"
	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/tuple"
)

// GPMRS computes the skyline of data with MR-GPMRS (Section 5): the local
// phase of Algorithm 8 on the mappers, independent partition groups
// (Algorithm 7) merged down to the reducer count (Section 5.4.1), and
// parallel reducers each finishing its groups independently (Algorithm 9),
// with replicated partitions output only by their designated responsible
// group (Section 5.4.2).
func GPMRS(cfg Config, data tuple.List) (tuple.List, *Stats, error) {
	return compute(cfg, data, AlgoGPMRS, 0)
}

// gpmrsRun executes the skyline job of MR-GPMRS against an already-prepared
// grid and bitstring; Hybrid reuses it after making its choice.
func gpmrsRun(cfg Config, input mapreduce.Input, prep *BitstringResult, start time.Time) (tuple.List, *Stats, error) {
	stats := statsFromPrep("MR-GPMRS", prep)
	g, bs := prep.Grid, prep.Bitstring
	r := cfg.reducers()

	// Driver-side view of the deterministic group structure, for stats.
	groups := g.IndependentGroups(bs)
	merged := grid.MergeGroups(groups, r, cfg.Merge)
	stats.Groups = len(groups)
	stats.MergedGroups = len(merged)

	skyStart := time.Now()
	funcs := gpmrsFuncs(&cfg, g)
	job := &mapreduce.Job{
		Name:        "mr-gpmrs",
		Input:       input,
		NumMappers:  cfg.mappers(),
		NumReducers: r,
		Cache:       mapreduce.Cache{cacheKeyBitstring: bs.Encode()},
		Partition:   funcs.Partition,
		NewMapper:   funcs.NewMapper,
		NewReducer:  funcs.NewReducer,
	}
	markKind(job, KindGPMRS, skySpec{Grid: gridSpecOf(g), Kernel: int(cfg.Kernel), Merge: int(cfg.Merge)})
	res, err := cfg.Engine.RunContext(cfg.ctx(), job)
	if err != nil {
		return nil, nil, err
	}
	sky, err := decodeTupleOutput(res.Output)
	if err != nil {
		return nil, nil, err
	}
	finishStats(stats, prep, res, sky, skyStart, start)
	return sky, stats, nil
}

// gpmrsFuncs wires the MR-GPMRS skyline job's task functions, for the
// driver and for the KindGPMRS builder alike.
func gpmrsFuncs(cfg *Config, g *grid.Grid) *mapreduce.JobFuncs {
	return &mapreduce.JobFuncs{
		NewMapper:  func() mapreduce.Mapper { return newGPMRSMapper(cfg, g) },
		NewReducer: func() mapreduce.Reducer { return newGPMRSReducer(cfg, g) },
		Partition:  gpmrsPartition,
	}
}

// gpmrsPartition routes merged-group bucket IDs to reduce tasks. Bucket
// IDs are dense in [0, min(r, groups)), so identity routing sends bucket b
// to reduce task b (Algorithm 8's "i % r" with the merge step already
// applied).
func gpmrsPartition(key []byte, r int) int {
	b, err := decodeKey(key)
	if err != nil || b < 0 {
		return 0
	}
	return b % r
}

// newGPMRSMapper implements Algorithm 8: the local phase of Algorithm 3
// (lines 1–10) followed by group generation (line 11) and distribution of
// each merged group's local skylines to its reducer (lines 12–19).
func newGPMRSMapper(cfg *Config, g *grid.Grid) mapreduce.Mapper {
	var (
		state *localState
		bs    *bitstring.Bitstring
	)
	return mapreduce.MapperFuncs{
		MapFn: func(ctx *mapreduce.TaskContext, rec mapreduce.Record, _ mapreduce.Emitter) error {
			if state == nil {
				var err error
				bs, _, err = bitstring.Decode(ctx.Cache.MustGet(cacheKeyBitstring))
				if err != nil {
					return err
				}
				state = newLocalState(g, bs, cfg.Kernel)
			}
			return state.add(ctx.Trace.Metrics(), rec)
		},
		FlushFn: func(ctx *mapreduce.TaskContext, emit mapreduce.Emitter) error {
			if state == nil {
				return nil // empty split contributes nothing
			}
			doneLocal := ctx.Trace.Timed(ctx.Track, "local-skyline", obs.CatAlgo, "algo.local_skyline.ns")
			s := state.finish()
			doneLocal()
			state.recordCounters(ctx, mapreduce.PhaseMap)
			// Line 11: generate groups — identically on every mapper, as a
			// pure function of the cached bitstring and the reducer count.
			merged := grid.MergeGroups(g.IndependentGroups(bs), ctx.NumReducers, cfg.Merge)
			var scratch []byte
			for _, mg := range merged {
				scratch = appendPartMap(scratch[:0], s, mg.Partitions)
				if len(scratch) <= 1 {
					continue // this mapper holds nothing for the group
				}
				emit(encodeKey(mg.ID), scratch)
			}
			return nil
		},
	}
}

// newGPMRSReducer implements Algorithm 9 for one reduce task. The task's
// key is its merged-group bucket ID; the group structure is recomputed from
// the cached bitstring, which also yields the responsible-partition
// designation of Section 5.4.2.
func newGPMRSReducer(cfg *Config, g *grid.Grid) mapreduce.Reducer {
	group := partWindows{g: g}
	return mapreduce.ReducerFuncs{
		ReduceFn: func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emitter) error {
			defer ctx.Trace.Timed(ctx.Track, "merge", obs.CatAlgo, "algo.merge.ns")()
			b, err := decodeKey(key)
			if err != nil {
				return err
			}
			bs, _, err := bitstring.Decode(ctx.Cache.MustGet(cacheKeyBitstring))
			if err != nil {
				return err
			}
			merged := grid.MergeGroups(g.IndependentGroups(bs), ctx.NumReducers, cfg.Merge)
			var mg *grid.MergedGroup
			for i := range merged {
				if merged[i].ID == b {
					mg = &merged[i]
					break
				}
			}
			if mg == nil {
				return fmt.Errorf("core: reducer received unknown group bucket %d", b)
			}
			// Lines 1–8: merge the mappers' windows per partition.
			runs := make(map[int][]tuple.List)
			for _, v := range values {
				pm, err := decodePartMap(v)
				if err != nil {
					return err
				}
				for p, l := range pm {
					if !mg.HasPartition(p) {
						return fmt.Errorf("core: bucket %d received foreign partition %d", b, p)
					}
					if runs[p] == nil {
						runs[p] = make([]tuple.List, 0, len(values))
					}
					runs[p] = append(runs[p], l)
				}
			}
			group.s = make(winMap, len(runs))
			for p, r := range runs {
				if err := group.mergeRuns(p, r); err != nil {
					return err
				}
			}
			// Lines 9–10: eliminate false positives within the group.
			group.comparePartitions()
			// Line 11 + Section 5.4.2: output only designated partitions.
			group.emitRows(emit, mg.Responsible)
			return nil
		},
		FlushFn: func(ctx *mapreduce.TaskContext, _ mapreduce.Emitter) error {
			group.recordCounters(ctx, mapreduce.PhaseReduce)
			return nil
		},
	}
}
