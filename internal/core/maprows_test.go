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

// TestMapRowsMatchesRecords is the differential for the rows input. Every
// grid job runs three ways: over EncodeRows' view of the caller's rows
// (the identity orientation, nothing copied), over EncodeRows' oriented
// copy under a mixed sign vector, and over TupleInput's records, which a
// mapper is handed decoded once per split. The first is held to the records
// of the same rows, the second to TupleInput's records of the rows oriented
// beforehand. Job 1 runs at auto PPD and at a fixed PPD, the skyline job as
// MR-GPSRS and MR-GPMRS, on three mappers and on up to 16, more than a
// small dataset has rows (a job then runs one map task per row). The two
// runs of a pair must emit the same output records, byte for byte, and
// every counter must agree: map input records, dominance tests, both
// partCmp maxima and shuffle bytes among them.
func TestMapRowsMatchesRecords(t *testing.T) {
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
	for name, data := range datasets {
		d := data.Dim()
		signs := make([]float64, d)
		for k := range signs {
			signs[k] = float64(2*(k%2) - 1) // −1, +1, −1, …
		}
		rows := make([][]float64, len(data))
		oriented := make(tuple.List, len(data))
		for i, t := range data {
			rows[i] = t
			oriented[i] = make(tuple.Tuple, d)
			for k, s := range signs {
				oriented[i][k] = t[k] * s
			}
		}
		for _, sides := range []struct {
			what  string
			signs []float64
			want  tuple.List
		}{
			{"the caller's rows", nil, data},
			{"the oriented copy", signs, oriented},
		} {
			in, lo, hi, err := EncodeRows(rows, sides.signs, false)
			if err != nil {
				t.Fatal(err)
			}
			inputs := [2]mapreduce.Input{in, mapreduce.RecordsInput(mapreduce.TupleInput(sides.want).Records)}
			for _, ppd := range []int{0, 3} {
				for _, mappers := range []int{3, min(len(rows)+2, 16)} {
					cfg := Config{PPD: ppd, Lo: lo, Hi: hi, NumMappers: mappers, NumReducers: 2}
					var plans [2]*Plan
					var job1 [2][]*mapreduce.Result
					for side, input := range inputs {
						rec := &recordingExecutor{Executor: eng}
						c := cfg
						c.Engine = rec
						prep, err := prepareInput(&c, input, d, len(rows))
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						plans[side], job1[side] = &Plan{input: input, card: len(rows), prep: prep}, rec.results
					}
					where := fmt.Sprintf("%s over %s, PPD %d, %d mappers", name, sides.what, ppd, mappers)
					sameJobs(t, where+", job 1", len(rows), job1)
					for _, algo := range []Algorithm{AlgoGPSRS, AlgoGPMRS} {
						var jobs [2][]*mapreduce.Result
						for side, plan := range plans {
							rec := &recordingExecutor{Executor: eng}
							c := cfg
							c.Engine = rec
							if _, _, err := plan.Run(c, algo); err != nil {
								t.Fatalf("%s %v: %v", where, algo, err)
							}
							jobs[side] = rec.results
						}
						sameJobs(t, fmt.Sprintf("%s, %v", where, algo), len(rows), jobs)
					}
				}
			}
		}
	}
}

// sameJobs fails unless the rows side's jobs (runs[0]) and the record
// side's (runs[1]) emitted the same records and counted the same, each
// job reading all n input records.
func sameJobs(t *testing.T, where string, n int, runs [2][]*mapreduce.Result) {
	t.Helper()
	if len(runs[0]) != 1 || len(runs[1]) != 1 {
		t.Fatalf("%s: %d and %d jobs ran, want 1 each", where, len(runs[0]), len(runs[1]))
	}
	rows, records := runs[0][0], runs[1][0]
	if got := rows.Counters.Get(mapreduce.CounterMapInputRecords); got != int64(n) {
		t.Errorf("%s: the rows job read %d records, want %d", where, got, n)
	}
	if a, r := rows.Counters.Snapshot(), records.Counters.Snapshot(); !reflect.DeepEqual(a, r) {
		t.Errorf("%s: counters over the rows %v, over the records %v", where, a, r)
	}
	if len(rows.Output) != len(records.Output) {
		t.Fatalf("%s: %d output records over the rows, %d over the records", where, len(rows.Output), len(records.Output))
	}
	for i, a := range rows.Output {
		r := records.Output[i]
		if !bytes.Equal(a.Key, r.Key) || !bytes.Equal(a.Value, r.Value) {
			t.Fatalf("%s: output record %d differs: %x/%x over the rows, %x/%x over the records", where, i, a.Key, a.Value, r.Key, r.Value)
		}
	}
}
