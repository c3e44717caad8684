package mapreduce_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mrskyline/internal/cluster"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/spill"
)

func newEngine(t testing.TB, nodes, slots int) *mapreduce.Engine {
	t.Helper()
	c, err := cluster.Uniform(nodes, slots)
	if err != nil {
		t.Fatal(err)
	}
	return mapreduce.NewEngine(c)
}

// wordCountJob is the canonical smoke test: count words across lines.
func wordCountJob(input []string, mappers, reducers int) *mapreduce.Job {
	recs := make([]mapreduce.Record, len(input))
	for i, line := range input {
		recs[i] = mapreduce.Record{Value: []byte(line)}
	}
	return &mapreduce.Job{
		Name:        "wordcount",
		Input:       mapreduce.MemoryInput{Records: recs},
		NumMappers:  mappers,
		NumReducers: reducers,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFuncs{
				MapFn: func(ctx *mapreduce.TaskContext, rec mapreduce.Record, emit mapreduce.Emitter) error {
					for _, w := range strings.Fields(string(rec.Value)) {
						emit([]byte(w), []byte("1"))
					}
					return nil
				},
			}
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFuncs{
				ReduceFn: func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emitter) error {
					emit(key, []byte(strconv.Itoa(len(values))))
					return nil
				},
			}
		},
	}
}

func countsFromResult(res *mapreduce.Result) map[string]int {
	out := map[string]int{}
	for _, rec := range res.Output {
		n, _ := strconv.Atoi(string(rec.Value))
		out[string(rec.Key)] = n
	}
	return out
}

func TestWordCount(t *testing.T) {
	e := newEngine(t, 3, 2)
	input := []string{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog",
	}
	for _, reducers := range []int{1, 2, 5} {
		res, err := e.Run(wordCountJob(input, 2, reducers))
		if err != nil {
			t.Fatal(err)
		}
		got := countsFromResult(res)
		want := map[string]int{"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 2}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("reducers=%d: counts = %v, want %v", reducers, got, want)
		}
		if got := res.Counters.Get(mapreduce.CounterMapInputRecords); got != 3 {
			t.Errorf("map input records = %d", got)
		}
		if got := res.Counters.Get(mapreduce.CounterMapOutputRecords); got != 10 {
			t.Errorf("map output records = %d", got)
		}
		if got := res.Counters.Get(mapreduce.CounterReduceInputRecords); got != 10 {
			t.Errorf("reduce input records = %d", got)
		}
		if got := res.Counters.Get(mapreduce.CounterReduceInputKeys); got != 6 {
			t.Errorf("reduce input keys = %d", got)
		}
		if res.Counters.Get(mapreduce.CounterShuffleBytes) == 0 {
			t.Error("shuffle bytes not counted")
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	e := newEngine(t, 4, 2)
	input := []string{"b a c", "a c b", "c b a", "z y x w v u"}
	var first []mapreduce.Record
	for i := 0; i < 5; i++ {
		res, err := e.Run(wordCountJob(input, 3, 3))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Output
			continue
		}
		if len(res.Output) != len(first) {
			t.Fatalf("run %d: output length changed", i)
		}
		for j := range first {
			if !bytes.Equal(res.Output[j].Key, first[j].Key) || !bytes.Equal(res.Output[j].Value, first[j].Value) {
				t.Fatalf("run %d: output[%d] differs", i, j)
			}
		}
	}
}

func TestValuesOrderedByMapper(t *testing.T) {
	// All mappers emit under one key; values must arrive ordered by mapper
	// index then emission order.
	e := newEngine(t, 2, 2)
	recs := make([]mapreduce.Record, 6)
	for i := range recs {
		recs[i] = mapreduce.Record{Value: []byte(strconv.Itoa(i))}
	}
	job := &mapreduce.Job{
		Name:       "order",
		Input:      mapreduce.MemoryInput{Records: recs},
		NumMappers: 3,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFuncs{
				MapFn: func(ctx *mapreduce.TaskContext, rec mapreduce.Record, emit mapreduce.Emitter) error {
					emit([]byte("k"), []byte(fmt.Sprintf("m%d:%s", ctx.TaskID, rec.Value)))
					return nil
				},
			}
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFuncs{
				ReduceFn: func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emitter) error {
					var parts []string
					for _, v := range values {
						parts = append(parts, string(v))
					}
					emit(key, []byte(strings.Join(parts, ",")))
					return nil
				},
			}
		},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	want := "m0:0,m0:1,m1:2,m1:3,m2:4,m2:5"
	if got := string(res.Output[0].Value); got != want {
		t.Errorf("value order = %q, want %q", got, want)
	}
}

func TestMapperFlushEmits(t *testing.T) {
	// Flush-time emission is the pattern every skyline mapper uses.
	e := newEngine(t, 2, 1)
	recs := []mapreduce.Record{{Value: []byte("a")}, {Value: []byte("b")}}
	job := &mapreduce.Job{
		Name:       "flush",
		Input:      mapreduce.MemoryInput{Records: recs},
		NumMappers: 1,
		NewMapper: func() mapreduce.Mapper {
			var seen []string
			return mapreduce.MapperFuncs{
				MapFn: func(ctx *mapreduce.TaskContext, rec mapreduce.Record, emit mapreduce.Emitter) error {
					seen = append(seen, string(rec.Value))
					return nil
				},
				FlushFn: func(ctx *mapreduce.TaskContext, emit mapreduce.Emitter) error {
					emit(nil, []byte(strings.Join(seen, "+")))
					return nil
				},
			}
		},
		NewReducer: identityReducer(),
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || string(res.Output[0].Value) != "a+b" {
		t.Errorf("output = %v", res.Output)
	}
}

func identityReducer() func() mapreduce.Reducer {
	return func() mapreduce.Reducer {
		return mapreduce.ReducerFuncs{
			ReduceFn: func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emitter) error {
				for _, v := range values {
					emit(key, v)
				}
				return nil
			},
		}
	}
}

func TestDistributedCache(t *testing.T) {
	e := newEngine(t, 2, 1)
	job := &mapreduce.Job{
		Name:       "cache",
		Input:      mapreduce.MemoryInput{Records: []mapreduce.Record{{Value: []byte("x")}}},
		NumMappers: 1,
		Cache:      mapreduce.Cache{"greeting": []byte("hello")},
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFuncs{
				MapFn: func(ctx *mapreduce.TaskContext, rec mapreduce.Record, emit mapreduce.Emitter) error {
					emit(nil, ctx.Cache.MustGet("greeting"))
					return nil
				},
			}
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFuncs{
				ReduceFn: func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emitter) error {
					g, ok := ctx.Cache.Get("greeting")
					if !ok {
						return errors.New("cache missing in reducer")
					}
					for _, v := range values {
						emit(nil, append(v, g...))
					}
					return nil
				},
			}
		},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || string(res.Output[0].Value) != "hellohello" {
		t.Errorf("output = %q", res.Output)
	}
	if _, ok := (mapreduce.Cache{}).Get("nope"); ok {
		t.Error("empty cache returned a value")
	}
}

func TestCacheMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(mapreduce.Cache{}).MustGet("nope")
}

func TestPermanentFaultFailsJob(t *testing.T) {
	e := newEngine(t, 2, 1)
	e.FaultInjector = func(phase mapreduce.Phase, taskID, attempt int) error {
		if phase == mapreduce.PhaseReduce && taskID == 0 {
			return errors.New("reducer 0 is cursed")
		}
		return nil
	}
	_, err := e.Run(wordCountJob([]string{"a"}, 1, 1))
	if err == nil || !strings.Contains(err.Error(), "cursed") {
		t.Fatalf("err = %v", err)
	}
}

func TestJobValidation(t *testing.T) {
	e := newEngine(t, 1, 1)
	base := wordCountJob([]string{"a"}, 1, 1)
	for name, mutate := range map[string]func(j *mapreduce.Job){
		"no-input":   func(j *mapreduce.Job) { j.Input = nil },
		"no-mapper":  func(j *mapreduce.Job) { j.NewMapper = nil },
		"no-reducer": func(j *mapreduce.Job) { j.NewReducer = nil },
	} {
		j := *base
		mutate(&j)
		if _, err := e.Run(&j); err == nil {
			t.Errorf("%s: job accepted", name)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	e := newEngine(t, 2, 1)
	res, err := e.Run(wordCountJob(nil, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 0 {
		t.Errorf("output = %v", res.Output)
	}
}

func TestMemoryInputSplitCounts(t *testing.T) {
	recs := make([]mapreduce.Record, 10)
	in := mapreduce.MemoryInput{Records: recs}
	for _, hint := range []int{1, 3, 10, 25, 0} {
		splits, err := in.Splits(hint)
		if err != nil {
			t.Fatal(err)
		}
		wantLen := hint
		if hint > 10 || hint < 1 {
			wantLen = 10
		}
		if hint == 0 {
			wantLen = 1
		}
		if len(splits) != wantLen {
			t.Errorf("hint %d: %d splits, want %d", hint, len(splits), wantLen)
		}
		total := 0
		for _, s := range splits {
			s.Each(func(mapreduce.Record) error { total++; return nil })
		}
		if total != 10 {
			t.Errorf("hint %d: splits cover %d records", hint, total)
		}
	}
}

func TestMapErrorPropagates(t *testing.T) {
	e := newEngine(t, 1, 1)
	job := wordCountJob([]string{"a"}, 1, 1)
	job.NewMapper = func() mapreduce.Mapper {
		return mapreduce.MapperFuncs{
			MapFn: func(ctx *mapreduce.TaskContext, rec mapreduce.Record, emit mapreduce.Emitter) error {
				return errors.New("map exploded")
			},
		}
	}
	job.MaxAttempts = 2
	if _, err := e.Run(job); err == nil || !strings.Contains(err.Error(), "map exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestPhaseString(t *testing.T) {
	if mapreduce.PhaseMap.String() != "map" || mapreduce.PhaseReduce.String() != "reduce" {
		t.Error("Phase.String wrong")
	}
}

func TestHashPartitionInRange(t *testing.T) {
	for r := 1; r <= 7; r++ {
		for i := 0; i < 100; i++ {
			k := []byte(strconv.Itoa(i * 31))
			p := mapreduce.HashPartition(k, r)
			if p < 0 || p >= r {
				t.Fatalf("HashPartition(%q, %d) = %d", k, r, p)
			}
		}
	}
	// Must spread across reducers reasonably.
	hit := map[int]bool{}
	for i := 0; i < 100; i++ {
		hit[mapreduce.HashPartition([]byte(strconv.Itoa(i)), 4)] = true
	}
	if len(hit) != 4 {
		t.Errorf("HashPartition used only %d of 4 buckets", len(hit))
	}
}

// lifecycleDrivers are the ways the engine can run a job; every one of them
// goes through the same attempt lifecycle, which the tests below pin. The
// leased driver's fleet is the in-memory one of leased_test.go, a worker per
// slot; jobs meant for it are shipped.
var lifecycleDrivers = []struct {
	name   string
	engine func(t *testing.T, nodes, slots int) *mapreduce.Engine
}{
	{"wall", func(t *testing.T, nodes, slots int) *mapreduce.Engine { return newEngine(t, nodes, slots) }},
	{"wall+spill", func(t *testing.T, nodes, slots int) *mapreduce.Engine {
		e := newEngine(t, nodes, slots)
		e.Spill = &spill.Config{Dir: t.TempDir(), Budget: 16, FanIn: 2}
		return e
	}},
	{"virtual", func(t *testing.T, nodes, slots int) *mapreduce.Engine {
		e := newEngine(t, nodes, slots)
		e.Faults = &mapreduce.FaultPlan{Seed: 1}
		return e
	}},
	{"leased", func(t *testing.T, nodes, slots int) *mapreduce.Engine { return newFleet(t, nodes*slots) }},
}

// TestAttemptLifecycleAcrossDrivers: a failing first attempt — a panicking
// or erroring fault injector, or user code that panics after it has
// counted and emitted — must become an Err-bearing History record with
// attempt number 1, be retried successfully as attempt 2, and leave no
// trace in the job's counters, identically on every driver.
func TestAttemptLifecycleAcrossDrivers(t *testing.T) {
	type hit struct {
		phase mapreduce.Phase
		task  int
	}
	first := func(phase mapreduce.Phase, task int, hits []hit, attempt int) bool {
		for _, h := range hits {
			if attempt == 1 && h.phase == phase && h.task == task {
				return true
			}
		}
		return false
	}
	allTasks := []hit{{mapreduce.PhaseMap, 0}, {mapreduce.PhaseMap, 1}, {mapreduce.PhaseReduce, 0}, {mapreduce.PhaseReduce, 1}}
	faults := []struct {
		name     string
		hits     []hit
		injector bool   // raised by Engine.FaultInjector, else by user code
		panics   bool   // delivered as a panic, else as a returned error
		wantErr  string // substring of the failed record's Err
	}{
		{"injector-panic-map", []hit{{mapreduce.PhaseMap, 0}}, true, true, "panic"},
		{"injector-panic-reduce", []hit{{mapreduce.PhaseReduce, 0}, {mapreduce.PhaseReduce, 1}}, true, true, "panic"},
		{"injector-error-everywhere", allTasks, true, false, "injected crash"},
		{"user-panic-after-counting", allTasks, false, true, "panic"},
	}
	for _, d := range lifecycleDrivers {
		for _, f := range faults {
			t.Run(d.name+"/"+f.name, func(t *testing.T) {
				e := d.engine(t, 3, 1)
				raise := func(phase mapreduce.Phase, task, attempt int) error {
					if !first(phase, task, f.hits, attempt) {
						return nil
					}
					if f.panics {
						panic(fmt.Sprintf("%v task %d exploded", phase, task))
					}
					return fmt.Errorf("injected crash for %v-%d", phase, task)
				}
				job := ship(wordCountJob([]string{"a b", "b c"}, 2, 2))
				if f.injector {
					e.FaultInjector = raise
				} else {
					// User code fails at Flush, after the attempt has
					// counted and emitted everything a successful one would.
					newMapper, newReducer := job.NewMapper, job.NewReducer
					job.NewMapper = func() mapreduce.Mapper {
						m := newMapper()
						return mapreduce.MapperFuncs{
							MapFn: func(ctx *mapreduce.TaskContext, rec mapreduce.Record, emit mapreduce.Emitter) error {
								ctx.Counters.Add("user.map.calls", 1)
								return m.Map(ctx, rec, emit)
							},
							FlushFn: func(ctx *mapreduce.TaskContext, _ mapreduce.Emitter) error {
								return raise(mapreduce.PhaseMap, ctx.TaskID, ctx.Attempt)
							},
						}
					}
					job.NewReducer = func() mapreduce.Reducer {
						r := newReducer()
						return mapreduce.ReducerFuncs{
							ReduceFn: func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emitter) error {
								ctx.Counters.Add("user.reduce.calls", 1)
								return r.Reduce(ctx, key, values, emit)
							},
							FlushFn: func(ctx *mapreduce.TaskContext, _ mapreduce.Emitter) error {
								return raise(mapreduce.PhaseReduce, ctx.TaskID, ctx.Attempt)
							},
						}
					}
				}
				res, err := e.Run(job)
				if err != nil {
					t.Fatalf("job did not survive failing first attempts: %v", err)
				}
				want := map[string]int{"a": 1, "b": 2, "c": 1}
				if got := countsFromResult(res); !reflect.DeepEqual(got, want) {
					t.Errorf("counts after retries = %v, want %v", got, want)
				}

				// Every hit task shows exactly a failed attempt 1 and a
				// successful attempt 2; every other task one clean attempt.
				byTask := map[hit][]mapreduce.TaskRecord{}
				for _, r := range res.History.Records() {
					k := hit{r.Phase, r.TaskID}
					byTask[k] = append(byTask[k], r)
				}
				if len(byTask) != len(allTasks) {
					t.Fatalf("history covers %d tasks, want %d: %+v", len(byTask), len(allTasks), res.History.Records())
				}
				for k, recs := range byTask {
					if !first(k.phase, k.task, f.hits, 1) {
						if len(recs) != 1 || recs[0].Err != "" || recs[0].Attempt != 1 {
							t.Errorf("%v task %d: records %+v, want one clean attempt", k.phase, k.task, recs)
						}
						continue
					}
					if len(recs) != 2 {
						t.Fatalf("%v task %d: %d records, want a failed and a successful attempt: %+v", k.phase, k.task, len(recs), recs)
					}
					if recs[0].Attempt != 1 || !strings.Contains(recs[0].Err, f.wantErr) {
						t.Errorf("%v task %d: first record %+v, want attempt 1 with Err containing %q", k.phase, k.task, recs[0], f.wantErr)
					}
					if recs[1].Attempt != 2 || recs[1].Err != "" {
						t.Errorf("%v task %d: second record %+v, want a clean attempt 2", k.phase, k.task, recs[1])
					}
				}
				if got := len(res.History.Failed()); got != len(f.hits) {
					t.Errorf("%d failed attempts on record, want %d", got, len(f.hits))
				}
				if got := res.ClusterStats.Retries; got != int64(len(f.hits)) {
					t.Errorf("ClusterStats.Retries = %d, want %d", got, len(f.hits))
				}

				// Counters reflect successful attempts only.
				wantCounters := map[string]int64{
					mapreduce.CounterMapInputRecords:     2,
					mapreduce.CounterMapOutputRecords:    4,
					mapreduce.CounterReduceInputKeys:     3,
					mapreduce.CounterReduceInputRecords:  4,
					mapreduce.CounterReduceOutputRecords: 3,
				}
				if !f.injector {
					wantCounters["user.map.calls"], wantCounters["user.reduce.calls"] = 2, 3
				}
				for name, want := range wantCounters {
					if got := res.Counters.Get(name); got != want {
						t.Errorf("counter %s = %d, want %d (failed attempts must not be merged)", name, got, want)
					}
				}
			})
		}
	}
}

// TestCancellationAcrossDrivers: a context cancelled while the job runs
// fails it with the context's error and the partial Result on every driver
// — noticed at the driver's next scheduling decision when tasks remain, and
// at the phase boundary when the cancelling task was the phase's last. The
// leased driver notices at once and does not wait for its worker: the
// cancelling attempt is then on record as killed, unless its report won the
// race.
func TestCancellationAcrossDrivers(t *testing.T) {
	for _, d := range lifecycleDrivers {
		for _, mappers := range []int{4, 1} {
			t.Run(fmt.Sprintf("%s/mappers=%d", d.name, mappers), func(t *testing.T) {
				e := d.engine(t, 1, 1) // one slot: map attempts run one at a time
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				job := ship(wordCountJob([]string{"a", "b", "c", "d"}, mappers, 2))
				newMapper := job.NewMapper
				job.NewMapper = func() mapreduce.Mapper {
					cancel() // the first map attempt to start ends the job
					return newMapper()
				}
				res, err := e.RunContext(ctx, job)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if res == nil {
					t.Fatal("cancelled run returned no partial result")
				}
				// The partial result holds the map attempts that ran — the
				// cancelling one, plus on the wall clock any placed before the
				// scheduler noticed — and nothing of the reduce phase.
				recs, settled := res.History.Records(), 0
				for _, r := range recs {
					if r.Phase != mapreduce.PhaseMap || (r.Err != "" && !(r.Killed && d.name == "leased")) {
						t.Errorf("unexpected record in a job cancelled during its map phase: %+v", r)
					}
					if !r.Killed {
						settled++
					}
				}
				if len(recs) == 0 || (len(recs) > 1 && (d.name == "virtual" || mappers == 1)) {
					t.Errorf("history has %d records, want the in-flight map attempt: %+v", len(recs), recs)
				}
				if got, want := res.Counters.Get(mapreduce.CounterMapInputRecords), int64(settled*4/mappers); got != want {
					t.Errorf("map input records = %d, want the %d of the attempts on record", got, want)
				}
			})
		}
	}
}
