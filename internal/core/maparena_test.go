package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mrskyline/internal/datagen"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/skyline"
	"mrskyline/internal/tuple"
)

// recordingExecutor runs jobs on an Executor and keeps each job's Result,
// in order.
type recordingExecutor struct {
	mapreduce.Executor
	results []*mapreduce.Result
}

func (r *recordingExecutor) RunContext(ctx context.Context, job *mapreduce.Job) (*mapreduce.Result, error) {
	res, err := r.Executor.RunContext(ctx, job)
	if err == nil {
		r.results = append(r.results, res)
	}
	return res, err
}

// TestMapArenaMatchesRecords is the differential for the whole-split map
// loop. Every grid job runs twice: over EncodeRows' arena, whose splits go
// to the mappers' MapArena whole, and over TupleInput's records, which go
// through Map one record at a time. Job 1 runs at auto PPD and at a fixed
// PPD, the skyline job as MR-GPSRS and MR-GPMRS under the bnl and sfs
// kernels, on three mappers and on up to 16, more than a small dataset has
// rows (a job then runs one map task per row). The two runs of a job must
// emit the same output records, byte for byte, and every counter must
// agree: map input records, dominance tests, both partCmp maxima and
// shuffle bytes among them.
func TestMapArenaMatchesRecords(t *testing.T) {
	negZero := math.Copysign(0, -1)
	constant := func(v float64) tuple.List {
		return tuple.List{{v, 0.25, v}, {v, 0.75, v}, {0.5, 0.5, v}, {v, 0.1, v}}
	}
	datasets := map[string]tuple.List{
		"signed zeros":    {{negZero, 0, 1}, {0, negZero, 2}, {negZero, negZero, 0.5}, {0, 0, 0}},
		"constant 1e17":   constant(1e17),
		"constant -1e300": constant(-1e300),
		"constant +max":   constant(math.MaxFloat64),
		"constant -max":   constant(-math.MaxFloat64),
		"d=1":             {{3}, {1}, {2}, {1}, {5}},
		"n=1":             {{0.5, -2, 7}},
		"independent":     datagen.Generate(datagen.Independent, 3000, 3, 7),
		"anticorrelated":  datagen.Generate(datagen.AntiCorrelated, 1500, 4, 7),
	}
	eng := internalTestConfig(t).Engine
	for name, rows := range datasets {
		in, lo, hi, err := EncodeRows(rows, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		inputs := [2]mapreduce.Input{in, mapreduce.RecordsInput(mapreduce.TupleInput(rows).Records)}
		for _, ppd := range []int{0, 3} {
			for _, mappers := range []int{3, min(len(rows)+2, 16)} {
				cfg := Config{PPD: ppd, Lo: lo, Hi: hi, NumMappers: mappers, NumReducers: 2}
				var plans [2]*Plan
				var job1 [2][]*mapreduce.Result
				for side, input := range inputs {
					rec := &recordingExecutor{Executor: eng}
					c := cfg
					c.Engine = rec
					prep, err := prepareInput(&c, input, in.Dim(), in.Len())
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					plans[side], job1[side] = &Plan{input: input, card: in.Len(), prep: prep}, rec.results
				}
				where := fmt.Sprintf("%s PPD %d, %d mappers", name, ppd, mappers)
				sameJobs(t, where+", job 1", len(rows), job1)
				for _, algo := range []Algorithm{AlgoGPSRS, AlgoGPMRS} {
					for _, kernel := range []skyline.Kernel{skyline.KernelBNL, skyline.KernelSFS} {
						var jobs [2][]*mapreduce.Result
						for side, plan := range plans {
							rec := &recordingExecutor{Executor: eng}
							c := cfg
							c.Engine, c.Kernel = rec, kernel
							if _, _, err := plan.Run(c, algo); err != nil {
								t.Fatalf("%s %v/%v: %v", where, algo, kernel, err)
							}
							jobs[side] = rec.results
						}
						sameJobs(t, fmt.Sprintf("%s, %v/%v", where, algo, kernel), len(rows), jobs)
					}
				}
			}
		}
	}
}

// sameJobs fails unless the arena side's jobs (runs[0]) and the record
// side's (runs[1]) emitted the same records and counted the same, each
// job reading all n input records.
func sameJobs(t *testing.T, where string, n int, runs [2][]*mapreduce.Result) {
	t.Helper()
	if len(runs[0]) != 1 || len(runs[1]) != 1 {
		t.Fatalf("%s: %d and %d jobs ran, want 1 each", where, len(runs[0]), len(runs[1]))
	}
	arena, records := runs[0][0], runs[1][0]
	if got := arena.Counters.Get(mapreduce.CounterMapInputRecords); got != int64(n) {
		t.Errorf("%s: the arena job read %d records, want %d", where, got, n)
	}
	if a, r := arena.Counters.Snapshot(), records.Counters.Snapshot(); !reflect.DeepEqual(a, r) {
		t.Errorf("%s: counters over the arena %v, over the records %v", where, a, r)
	}
	if len(arena.Output) != len(records.Output) {
		t.Fatalf("%s: %d output records over the arena, %d over the records", where, len(arena.Output), len(records.Output))
	}
	for i, a := range arena.Output {
		r := records.Output[i]
		if !bytes.Equal(a.Key, r.Key) || !bytes.Equal(a.Value, r.Value) {
			t.Fatalf("%s: output record %d differs: %x/%x over the arena, %x/%x over the records", where, i, a.Key, a.Value, r.Key, r.Value)
		}
	}
}
