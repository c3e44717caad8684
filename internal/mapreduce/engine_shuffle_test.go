package mapreduce_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
)

// TestPartitionOutOfRangeFailsJob pins the bugfix: a partitioner routing
// outside [0, numReducers) must fail the job through the normal task-error
// path — retried up to MaxAttempts — not panic out of the engine.
func TestPartitionOutOfRangeFailsJob(t *testing.T) {
	e := newEngine(t, 2, 1)
	calls := 0
	job := wordCountJob([]string{"a"}, 1, 2)
	job.MaxAttempts = 2
	job.Partition = func(key []byte, r int) int {
		calls++
		return r // one past the last valid reducer
	}
	_, err := e.Run(job)
	if err == nil || !strings.Contains(err.Error(), "partitioner") {
		t.Fatalf("err = %v, want partitioner error", err)
	}
	// One partition call per attempt: the error must have gone through the
	// retry machinery, not aborted on first touch.
	if calls != 2 {
		t.Errorf("partitioner called %d times, want 2 (one per attempt)", calls)
	}
}

// shuffleEmissions generates mapper m's deterministic emissions for the
// reference test: duplicate keys within and across mappers, nil keys, and
// empty values.
func shuffleEmissions(m int) []mapreduce.Record {
	rng := rand.New(rand.NewSource(int64(m) + 1))
	n := 20 + rng.Intn(20)
	out := make([]mapreduce.Record, n)
	for i := range out {
		var key []byte
		if rng.Intn(8) != 0 {
			key = []byte(fmt.Sprintf("k%02d", rng.Intn(6)))
		}
		var val []byte
		if vlen := rng.Intn(12); vlen > 0 {
			val = make([]byte, vlen)
			rng.Read(val)
		}
		out[i] = mapreduce.Record{Key: key, Value: val}
	}
	return out
}

// TestShuffleMatchesReferenceGrouping replays the old shuffle —
// map[string][][]byte per reducer plus sort.Strings — driver-side and
// demands the engine's sort-based path produce byte-identical output,
// identical shuffle-byte accounting, and the same reduce-key order.
func TestShuffleMatchesReferenceGrouping(t *testing.T) {
	const mappers, reducers = 4, 3
	e := newEngine(t, 3, 2)
	recs := make([]mapreduce.Record, mappers)
	for i := range recs {
		recs[i] = mapreduce.Record{Value: []byte{byte(i)}}
	}
	job := &mapreduce.Job{
		Name:        "shuffle-ref",
		Input:       mapreduce.MemoryInput{Records: recs},
		NumMappers:  mappers,
		NumReducers: reducers,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFuncs{
				MapFn: func(ctx *mapreduce.TaskContext, rec mapreduce.Record, emit mapreduce.Emitter) error {
					for _, r := range shuffleEmissions(int(rec.Value[0])) {
						emit(r.Key, r.Value)
					}
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

	// Reference: route the same emissions with the default partitioner, group
	// per reducer with the replaced map+sort.Strings scheme, and flatten in
	// reducer order (the identity reducer emits each value under its key).
	var want []mapreduce.Record
	var wantBytes int64
	perReducer := make([][]mapreduce.Record, reducers)
	for m := 0; m < mappers; m++ {
		for _, r := range shuffleEmissions(m) {
			p := mapreduce.HashPartition(r.Key, reducers)
			perReducer[p] = append(perReducer[p], r)
			wantBytes += int64(len(r.Key) + len(r.Value))
		}
	}
	for _, bucket := range perReducer {
		groups := make(map[string][][]byte)
		for _, r := range bucket {
			groups[string(r.Key)] = append(groups[string(r.Key)], r.Value)
		}
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			for _, v := range groups[k] {
				want = append(want, mapreduce.Record{Key: []byte(k), Value: v})
			}
		}
	}

	if len(res.Output) != len(want) {
		t.Fatalf("output has %d records, want %d", len(res.Output), len(want))
	}
	for i := range want {
		if !bytes.Equal(res.Output[i].Key, want[i].Key) || !bytes.Equal(res.Output[i].Value, want[i].Value) {
			t.Fatalf("output[%d] = {%q %q}, want {%q %q}",
				i, res.Output[i].Key, res.Output[i].Value, want[i].Key, want[i].Value)
		}
	}
	if got := res.Counters.Get(mapreduce.CounterShuffleBytes); got != wantBytes {
		t.Errorf("shuffle bytes = %d, want %d", got, wantBytes)
	}
}

// TestMeasureParallelismOutputParity checks the fidelity contract: parallel
// measurement may only change wall-clock, never the job's output, counters,
// or the fact that simulated time is accounted.
func TestMeasureParallelismOutputParity(t *testing.T) {
	input := []string{"b a c a", "d c b a", "e f g", "a a a"}
	run := func(par int) *mapreduce.Result {
		t.Helper()
		e := newEngine(t, 4, 2)
		e.Sim = &mapreduce.SimConfig{MeasureParallelism: par}
		res, err := e.Run(wordCountJob(input, 4, 3))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(4)
	if serial.SimulatedTime <= 0 || parallel.SimulatedTime <= 0 {
		t.Fatalf("simulated time not accounted: serial %v, parallel %v", serial.SimulatedTime, parallel.SimulatedTime)
	}
	if len(serial.Output) != len(parallel.Output) {
		t.Fatalf("output lengths differ: %d vs %d", len(serial.Output), len(parallel.Output))
	}
	for i := range serial.Output {
		if !bytes.Equal(serial.Output[i].Key, parallel.Output[i].Key) ||
			!bytes.Equal(serial.Output[i].Value, parallel.Output[i].Value) {
			t.Fatalf("output[%d] differs between serial and parallel measurement", i)
		}
	}
	for _, c := range []string{
		mapreduce.CounterMapOutputRecords,
		mapreduce.CounterReduceInputKeys,
		mapreduce.CounterShuffleBytes,
	} {
		if s, p := serial.Counters.Get(c), parallel.Counters.Get(c); s != p {
			t.Errorf("counter %s: serial %d, parallel %d", c, s, p)
		}
	}
}

// benchShuffleJob builds the shuffle-dominated benchmark job: n records
// hashed over keyCard keys, 8 mappers, 4 reducers.
func benchShuffleJob(keyCard, n int) *mapreduce.Job {
	recs := make([]mapreduce.Record, n)
	for i := range recs {
		recs[i] = mapreduce.Record{Value: []byte(fmt.Sprintf("%d %d", i%keyCard, i))}
	}
	return &mapreduce.Job{
		Name:        "bench-shuffle",
		Input:       mapreduce.MemoryInput{Records: recs},
		NumMappers:  8,
		NumReducers: 4,
		NewMapper: func() mapreduce.Mapper {
			var scratch []byte
			return mapreduce.MapperFuncs{
				MapFn: func(ctx *mapreduce.TaskContext, rec mapreduce.Record, emit mapreduce.Emitter) error {
					f := bytes.Fields(rec.Value)
					scratch = append(scratch[:0], 'k')
					scratch = append(scratch, f[0]...)
					emit(scratch, f[1])
					return nil
				},
			}
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFuncs{
				ReduceFn: func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emitter) error {
					emit(key, []byte{byte(len(values))})
					return nil
				},
			}
		},
	}
}

// BenchmarkShuffle drives a full map-shuffle-reduce job whose cost is
// dominated by the shuffle, across key cardinalities and record counts.
// It runs with the default nil tracer, so comparing its ns/op against the
// pre-instrumentation baseline measures the disabled tracer's overhead
// (the acceptance bar is < 5%); BenchmarkShuffleTraced measures the
// enabled tracer on the same job.
func BenchmarkShuffle(b *testing.B) {
	for _, keyCard := range []int{16, 4096} {
		for _, n := range []int{10_000, 100_000} {
			b.Run(fmt.Sprintf("keys=%d/recs=%d", keyCard, n), func(b *testing.B) {
				c := newEngine(b, 4, 2)
				job := benchShuffleJob(keyCard, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.Run(job); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkShuffleTraced is BenchmarkShuffle's mid-size shape with an
// enabled tracer attached, quantifying the full cost of span and metric
// recording relative to BenchmarkShuffle's nil-tracer runs.
func BenchmarkShuffleTraced(b *testing.B) {
	c := newEngine(b, 4, 2)
	c.SetTrace(obs.New())
	job := benchShuffleJob(16, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(job); err != nil {
			b.Fatal(err)
		}
	}
}

// TestIntKeyRoundTrip: every id survives IntKey and ParseIntKey, negative
// ones too (an angular partition can be one), and a key of any other width
// is refused.
func TestIntKeyRoundTrip(t *testing.T) {
	for _, id := range []int{0, 1, 255, 1 << 20, 1<<40 + 3, -1, -1 << 40} {
		got, err := mapreduce.ParseIntKey(mapreduce.IntKey(id))
		if err != nil || got != id {
			t.Errorf("ParseIntKey(IntKey(%d)) = %d, %v", id, got, err)
		}
	}
	if _, err := mapreduce.ParseIntKey([]byte{1, 2, 3}); err == nil {
		t.Error("short key accepted")
	}
}

func TestIntKeyOrderingMatchesNumeric(t *testing.T) {
	prev := mapreduce.IntKey(0)
	for id := 1; id < 5000; id += 7 {
		cur := mapreduce.IntKey(id)
		if string(prev) >= string(cur) {
			t.Fatalf("key ordering broken at %d", id)
		}
		prev = cur
	}
}
