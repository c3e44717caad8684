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

// GPSRS computes the skyline of data with MR-GPSRS (Section 4): grid
// partitioning, bitstring pruning, per-partition local skylines on the
// mappers (Algorithm 3) and a single reducer assembling the global skyline
// (Algorithm 6).
func GPSRS(cfg Config, data tuple.List) (tuple.List, *Stats, error) {
	return compute(cfg, data, AlgoGPSRS, 0)
}

// gpsrsRun executes the skyline job of MR-GPSRS against an already-prepared
// grid and bitstring; Hybrid reuses it after making its choice.
func gpsrsRun(cfg Config, input mapreduce.Input, prep *BitstringResult, start time.Time) (tuple.List, *Stats, error) {
	stats := statsFromPrep("MR-GPSRS", prep)

	skyStart := time.Now()
	g, bs := prep.Grid, prep.Bitstring
	funcs := gpsrsFuncs(&cfg, g)
	job := &mapreduce.Job{
		Name:        "mr-gpsrs",
		Input:       input,
		NumMappers:  cfg.mappers(),
		NumReducers: 1,
		Cache:       mapreduce.Cache{cacheKeyBitstring: bs.Encode()},
		NewMapper:   funcs.NewMapper,
		NewReducer:  funcs.NewReducer,
	}
	markKind(job, KindGPSRS, skySpec{Grid: gridSpecOf(g), Kernel: int(cfg.Kernel)})
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

// gpsrsFuncs wires the MR-GPSRS skyline job's task functions, for the
// driver and for the KindGPSRS builder alike.
func gpsrsFuncs(cfg *Config, g *grid.Grid) *mapreduce.JobFuncs {
	return &mapreduce.JobFuncs{
		NewMapper:  func() mapreduce.Mapper { return newGPMapper(cfg, g) },
		NewReducer: func() mapreduce.Reducer { return newGPSRSReducer(g) },
	}
}

// newGPSRSReducer builds the single reducer of MR-GPSRS (Algorithm 6).
// State: the merged per-partition columnar windows.
func newGPSRSReducer(g *grid.Grid) mapreduce.Reducer {
	merged := partWindows{g: g, s: make(winMap)}
	var runs []tuple.List
	return mapreduce.ReducerFuncs{
		ReduceFn: func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, _ mapreduce.Emitter) error {
			// One key per partition; values are the mappers' local
			// windows for it (lines 1–6).
			p, err := decodeKey(key)
			if err != nil {
				return err
			}
			if p < 0 || p >= g.NumPartitions() {
				return fmt.Errorf("core: partition key %d out of range", p)
			}
			runs = runs[:0]
			for _, v := range values {
				l, _, err := tuple.DecodeList(v)
				if err != nil {
					return err
				}
				runs = append(runs, l)
			}
			return merged.mergeRuns(p, runs)
		},
		FlushFn: func(ctx *mapreduce.TaskContext, emit mapreduce.Emitter) error {
			// Lines 7–8: eliminate cross-partition false positives,
			// then output the union (line 9).
			doneMerge := ctx.Trace.Timed(ctx.Track, "merge", obs.CatAlgo, "algo.merge.ns")
			merged.comparePartitions()
			doneMerge()
			merged.recordCounters(ctx, mapreduce.PhaseReduce)
			merged.emitRows(emit, nil)
			return nil
		},
	}
}

// newGPMapper wires localState into the Mapper contract for GPSRS
// (Algorithm 3): the global bitstring is read from the distributed cache on
// the first record, per-partition windows are maintained across the split,
// and Flush emits one record per non-empty partition keyed by partition
// index.
func newGPMapper(cfg *Config, g *grid.Grid) mapreduce.Mapper {
	var state *localState
	return mapreduce.MapperFuncs{
		MapFn: func(ctx *mapreduce.TaskContext, rec mapreduce.Record, _ mapreduce.Emitter) error {
			if state == nil {
				bs, _, err := bitstring.Decode(ctx.Cache.MustGet(cacheKeyBitstring))
				if err != nil {
					return err
				}
				state = newLocalState(g, bs, cfg.Kernel)
			}
			return state.add(ctx.Trace.Metrics(), rec)
		},
		FlushFn: func(ctx *mapreduce.TaskContext, emit mapreduce.Emitter) error {
			if state == nil {
				return nil // empty split
			}
			doneLocal := ctx.Trace.Timed(ctx.Track, "local-skyline", obs.CatAlgo, "algo.local_skyline.ns")
			s := state.finish()
			doneLocal()
			state.recordCounters(ctx, mapreduce.PhaseMap)
			var scratch []byte
			for _, p := range s.sortedPartitions() {
				scratch = tuple.AppendEncodeList(scratch[:0], s[p].Rows())
				emit(encodeKey(p), scratch)
			}
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
func finishStats(st *Stats, prep *BitstringResult, res *mapreduce.Result, sky tuple.List, skyStart, start time.Time) {
	st.SkylineSize = len(sky)
	st.MapperPartCmpMax = res.Counters.GetMax(counterPartCmpMapMax)
	st.ReducerPartCmpMax = res.Counters.GetMax(counterPartCmpReduceMax)
	st.DominanceTests = res.Counters.Get(counterDominanceTests)
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
