package mapreduce_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mrskyline/internal/datagen"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/tuple"
)

// splitValues lists each split's record values, in order.
func splitValues(t *testing.T, in mapreduce.Input, hint int) [][][]byte {
	t.Helper()
	splits, err := in.Splits(hint)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][][]byte, len(splits))
	for i, s := range splits {
		if err := s.Each(func(rec mapreduce.Record) error {
			if rec.Key != nil {
				t.Errorf("record key %q, want nil", rec.Key)
			}
			out[i] = append(out[i], rec.Value)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// asRows returns a tuple list as plain rows, the same backing arrays.
func asRows(data tuple.List) [][]float64 {
	rows := make([][]float64, len(data))
	for i, t := range data {
		rows[i] = t
	}
	return rows
}

// TestTupleRowsSplits: a TupleRows' splits are MemoryInput's over
// TupleInput's records — same boundaries, same values in the same order
// from Each — and each split views the rows with its capacity clipped, so
// an append to a split's rows cannot reach the next split's. Each record
// is a window that an append cannot grow into the next record. On the
// leased driver both inputs frame byte-identical splits.
func TestTupleRowsSplits(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 1000} {
		data := datagen.Generate(datagen.AntiCorrelated, n, 3, int64(n))
		rows, records := mapreduce.TupleRows(asRows(data)), mapreduce.TupleInput(data)
		for _, hint := range []int{0, 1, 16, n + 3} {
			splits, err := rows.Splits(hint)
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			for s, split := range splits {
				v := mapreduce.SplitRows(split)
				if cap(v) != len(v) {
					t.Errorf("n = %d, hint %d: split %d views %d rows with capacity %d", n, hint, s, len(v), cap(v))
				}
				for i := range v {
					if &v[i][0] != &data[next][0] {
						t.Fatalf("n = %d, hint %d: split %d row %d is not the input's row %d", n, hint, s, i, next)
					}
					next++
				}
			}
			got, want := splitValues(t, rows, hint), splitValues(t, records, hint)
			if len(got) != len(want) {
				t.Fatalf("n = %d, hint %d: %d splits, want %d", n, hint, len(got), len(want))
			}
			for s := range want {
				if len(got[s]) != len(want[s]) {
					t.Fatalf("n = %d, hint %d: split %d has %d records, want %d", n, hint, s, len(got[s]), len(want[s]))
				}
				for r := range want[s] {
					if !bytes.Equal(got[s][r], want[s][r]) {
						t.Fatalf("n = %d, hint %d: split %d record %d = %x, want %x", n, hint, s, r, got[s][r], want[s][r])
					}
				}
			}
		}
	}

	for name, in := range map[string]mapreduce.Input{
		"TupleRows":  mapreduce.TupleRows{{1, 2}, {3, 4}},
		"TupleInput": mapreduce.TupleInput(tuple.List{{1, 2}, {3, 4}}),
	} {
		vals := splitValues(t, in, 1)[0]
		next := bytes.Clone(vals[1])
		_ = append(vals[0], 0xff, 0xff, 0xff)
		if !bytes.Equal(vals[1], next) {
			t.Errorf("%s: appending to a record changed the next one: %x, want %x", name, vals[1], next)
		}
	}

	data := datagen.Generate(datagen.Independent, 17, 3, 1)
	want := leasedSplits(t, mapreduce.TupleInput(data), 4)
	if got := leasedSplits(t, mapreduce.TupleRows(asRows(data)), 4); len(got) != len(want) {
		t.Fatalf("leased: %d splits, want %d", len(got), len(want))
	} else {
		for m := range want {
			if !bytes.Equal(got[m], want[m]) {
				t.Errorf("leased split %d = %x, want %x", m, got[m], want[m])
			}
		}
	}
}

// leasedSplits submits a job over in with the given map task count to a
// scripted fleet and returns the framed split each map lease carries.
func leasedSplits(t *testing.T, in mapreduce.Input, mappers int) [][]byte {
	t.Helper()
	s := newScript(t, mappers)
	job := ship(wordCountJob(nil, mappers, 1))
	job.Input = in
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan outcome, 1)
	go func() {
		res, err := s.e.RunContext(ctx, job)
		out <- outcome{res, err}
	}()
	splits := make([][]byte, mappers)
	for m := range splits {
		splits[m] = s.grant(m, mapPhase, m, 1).Split
	}
	cancel()
	if _, err := s.wait(out); !errors.Is(err, context.Canceled) {
		t.Fatalf("job ended with %v, want context.Canceled", err)
	}
	return splits
}

// TestRowsMapperReadsWholeSplits: a RowsMapper's task reads its split in
// one MapRows call, and an empty split in none, on the wall clock and on
// the virtual one, whether the input is TupleRows, whose rows it is handed
// themselves, or TupleInput's records, which it is handed decoded once into
// capacity-clipped rows. Both read the same tuples in the same order and
// count them as map input records. Only an empty input has empty splits: a
// job runs no more map tasks than it has records. A record that is not one
// encoded tuple of the split's dimensionality fails the task.
func TestRowsMapperReadsWholeSplits(t *testing.T) {
	const d = 3
	job := func(in mapreduce.Input, mappers int, check func(i int, row []float64) error) *mapreduce.Job {
		return &mapreduce.Job{
			Name: "rows", Input: in, NumMappers: mappers, NumReducers: 1,
			NewMapper: func() mapreduce.Mapper {
				calls := 0
				return mapreduce.RowsMapperFuncs{
					MapRowsFn: func(_ *mapreduce.TaskContext, rows [][]float64, emit mapreduce.Emitter) error {
						calls++
						for i, row := range rows {
							if err := check(i, row); err != nil {
								return err
							}
							emit([]byte("row"), tuple.Encode(row))
						}
						return nil
					},
					FlushFn: func(_ *mapreduce.TaskContext, emit mapreduce.Emitter) error {
						emit([]byte("calls"), []byte{byte(calls)})
						return nil
					},
				}
			},
			NewReducer: func() mapreduce.Reducer {
				return mapreduce.ReducerFuncs{ReduceFn: func(_ *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emitter) error {
					for _, v := range values {
						emit(key, v)
					}
					return nil
				}}
			},
		}
	}
	virtual := newEngine(t, 2, 2)
	virtual.Faults = &mapreduce.FaultPlan{Seed: 1}
	for name, e := range map[string]*mapreduce.Engine{"wall": newEngine(t, 2, 2), "virtual": virtual} {
		for _, shape := range [][2]int{{10, 3}, {10, 14}, {0, 3}} {
			n, mappers := shape[0], shape[1]
			data := datagen.Generate(datagen.Independent, n, d, 1)
			var want []byte
			for _, tp := range data {
				want = append(want, tuple.Encode(tp)...)
			}
			splits, err := mapreduce.MemoryInput{Records: make([]mapreduce.Record, n)}.Splits(mappers)
			if err != nil {
				t.Fatal(err)
			}
			owned := map[*float64]bool{}
			for _, tp := range data {
				owned[&tp[0]] = true
			}
			for _, rowsInput := range []bool{true, false} {
				in, check := mapreduce.Input(mapreduce.TupleInput(data)), func(i int, row []float64) error {
					if len(row) != d || cap(row) != d || owned[&row[0]] {
						return fmt.Errorf("decoded row %d: %d values, capacity %d, the input's own %v", i, len(row), cap(row), owned[&row[0]])
					}
					return nil
				}
				if rowsInput {
					in, check = mapreduce.TupleRows(asRows(data)), func(i int, row []float64) error {
						if !owned[&row[0]] {
							return fmt.Errorf("row %d is a copy, not the input's row", i)
						}
						return nil
					}
				}
				res, err := e.Run(job(in, mappers, check))
				if err != nil {
					t.Fatal(err)
				}
				var rows, calls []byte
				for _, rec := range res.Output {
					if string(rec.Key) == "row" {
						rows = append(rows, rec.Value...)
					} else {
						calls = append(calls, rec.Value...)
					}
				}
				where := fmt.Sprintf("%s, n = %d, %d mappers, TupleRows %v", name, n, mappers, rowsInput)
				if len(calls) != len(splits) {
					t.Errorf("%s: %d map tasks, want %d", where, len(calls), len(splits))
				}
				if !bytes.Equal(rows, want) {
					t.Errorf("%s: mapped tuples differ from the input's", where)
				}
				if got := res.Counters.Get(mapreduce.CounterMapInputRecords); got != int64(n) {
					t.Errorf("%s: %d map input records, want %d", where, got, n)
				}
				for m, c := range calls[:min(len(calls), len(splits))] {
					size := 0
					splits[m].Each(func(mapreduce.Record) error { size++; return nil })
					if want := min(size, 1); int(c) != want {
						t.Errorf("%s: mapper %d made %d MapRows calls over %d records, want %d", where, m, c, size, want)
					}
				}
			}
		}
	}

	accept := func(int, []float64) error { return nil }
	for name, in := range map[string]mapreduce.Input{
		"a truncated record": mapreduce.MemoryInput{Records: []mapreduce.Record{{Value: tuple.Encode(tuple.Tuple{1, 2, 3})}, {Value: []byte{3, 1, 2}}}},
		"a narrower record":  mapreduce.MemoryInput{Records: []mapreduce.Record{{Value: tuple.Encode(tuple.Tuple{1, 2, 3})}, {Value: tuple.Encode(tuple.Tuple{1, 2})}}},
		"a wider record":     mapreduce.MemoryInput{Records: []mapreduce.Record{{Value: tuple.Encode(tuple.Tuple{1, 2, 3})}, {Value: tuple.Encode(tuple.Tuple{1, 2, 3, 4})}}},
		"a trailing byte":    mapreduce.MemoryInput{Records: []mapreduce.Record{{Value: append(tuple.Encode(tuple.Tuple{1, 2, 3}), 0)}}},
	} {
		if _, err := newEngine(t, 2, 2).Run(job(in, 1, accept)); err == nil || !strings.Contains(err.Error(), "not one encoded tuple") {
			t.Errorf("%s: %v, want a failed task", name, err)
		}
	}
	if err := (mapreduce.RowsMapperFuncs{}).Map(nil, mapreduce.Record{}, nil); err == nil {
		t.Error("RowsMapperFuncs.Map accepted a record")
	}
}
