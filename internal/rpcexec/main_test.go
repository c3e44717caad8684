package rpcexec

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"mrskyline/internal/mapreduce"
)

// TestMain is the worker re-exec entry point: ProcExecutor spawns the test
// binary itself (BinPath defaults to os.Args[0]), and WorkerMain takes the
// process over when the master address environment variable is set.
func TestMain(m *testing.M) {
	WorkerMain()
	os.Exit(m.Run())
}

// ---------------------------------------------------------------------------
// A kind-registered test job: per-key integer sums, with optional task
// sleeps so tests can force task attempts to spread across workers.

const testSumKind = "rpcexec-test/sum"

type sumSpec struct {
	// MapSleepMs / ReduceSleepMs hold each task attempt open, so a peer
	// worker polling every LeasePoll reliably grabs the next pending task.
	MapSleepMs    int
	ReduceSleepMs int
	// AwaitDeathOf, when set, holds every map attempt of any other process
	// until process AwaitDeathOf is gone (for at most 10 s), so that process
	// leases every map it can until it dies.
	AwaitDeathOf int `json:",omitempty"`
}

func newSumMapper(s sumSpec) mapreduce.Mapper {
	return mapreduce.MapperFuncs{
		MapFn: func(_ *mapreduce.TaskContext, rec mapreduce.Record, emit mapreduce.Emitter) error {
			emit(rec.Key, rec.Value)
			return nil
		},
		FlushFn: func(_ *mapreduce.TaskContext, _ mapreduce.Emitter) error {
			if s.AwaitDeathOf != 0 && s.AwaitDeathOf != os.Getpid() {
				for deadline := time.Now().Add(10 * time.Second); processAlive(s.AwaitDeathOf) && time.Now().Before(deadline); {
					time.Sleep(5 * time.Millisecond)
				}
			}
			time.Sleep(time.Duration(s.MapSleepMs) * time.Millisecond)
			return nil
		},
	}
}

func newSumReducer(s sumSpec) mapreduce.Reducer {
	return mapreduce.ReducerFuncs{
		ReduceFn: func(_ *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emitter) error {
			var total uint64
			for _, v := range values {
				n, k := binary.Uvarint(v)
				if k <= 0 {
					return fmt.Errorf("bad sum value %x", v)
				}
				total += n
			}
			emit(key, binary.AppendUvarint(nil, total))
			return nil
		},
		FlushFn: func(_ *mapreduce.TaskContext, _ mapreduce.Emitter) error {
			time.Sleep(time.Duration(s.ReduceSleepMs) * time.Millisecond)
			return nil
		},
	}
}

func init() {
	mapreduce.RegisterKind(testSumKind, func(spec []byte) (*mapreduce.JobFuncs, error) {
		var s sumSpec
		if err := json.Unmarshal(spec, &s); err != nil {
			return nil, err
		}
		return &mapreduce.JobFuncs{
			NewMapper:  func() mapreduce.Mapper { return newSumMapper(s) },
			NewReducer: func() mapreduce.Reducer { return newSumReducer(s) },
		}, nil
	})
}

// sumJob builds a runnable sum job: records records round-robined over keys
// k0..k<keys-1> with value i, split into mappers map tasks.
func sumJob(name string, keys, records, mappers, reducers, mapSleepMs, reduceSleepMs int) *mapreduce.Job {
	return sumJobOf(name, keys, records, mappers, reducers, sumSpec{MapSleepMs: mapSleepMs, ReduceSleepMs: reduceSleepMs})
}

// sumJobOf is sumJob with its whole spec given.
func sumJobOf(name string, keys, records, mappers, reducers int, s sumSpec) *mapreduce.Job {
	recs := make([]mapreduce.Record, records)
	for i := range recs {
		recs[i] = mapreduce.Record{
			Key:   []byte(fmt.Sprintf("k%d", i%keys)),
			Value: binary.AppendUvarint(nil, uint64(i)),
		}
	}
	spec, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	funcs, err := mapreduce.BuildKind(testSumKind, spec)
	if err != nil {
		panic(err)
	}
	return &mapreduce.Job{
		Name:        name,
		Input:       mapreduce.MemoryInput{Records: recs},
		NumMappers:  mappers,
		NumReducers: reducers,
		NewMapper:   funcs.NewMapper,
		NewReducer:  funcs.NewReducer,
		Kind:        testSumKind,
		Spec:        spec,
	}
}

// sumJobExpected computes the sum job's exact expected output: reduce tasks
// in order, keys sorted within each task, each key's round-robin total.
func sumJobExpected(keys, records, reducers int) []mapreduce.Record {
	totals := make(map[string]uint64)
	for i := 0; i < records; i++ {
		totals[fmt.Sprintf("k%d", i%keys)] += uint64(i)
	}
	var out []mapreduce.Record
	for r := 0; r < reducers; r++ {
		var ks []string
		for k := range totals {
			if mapreduce.HashPartition([]byte(k), reducers) == r {
				ks = append(ks, k)
			}
		}
		sortStrings(ks)
		for _, k := range ks {
			out = append(out, mapreduce.Record{
				Key:   []byte(k),
				Value: binary.AppendUvarint(nil, totals[k]),
			})
		}
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func recordsEqual(a, b []mapreduce.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i].Key) != string(b[i].Key) || string(a[i].Value) != string(b[i].Value) {
			return false
		}
	}
	return true
}

func formatRecords(recs []mapreduce.Record) string {
	s := ""
	for _, r := range recs {
		n, _ := binary.Uvarint(r.Value)
		s += fmt.Sprintf("%s=%d ", r.Key, n)
	}
	return s
}

// newProcExec starts a process executor torn down with the test.
func newProcExec(t *testing.T, cfg Config) *ProcExecutor {
	t.Helper()
	pe, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	t.Cleanup(func() { pe.Close() })
	return pe
}

// fastTimings are chaos-test timings: quick heartbeats so worker death is
// detected in well under a second, lease poll tight enough that an idle
// worker grabs pending work while a peer is mid-task.
func fastTimings(cfg Config) Config {
	cfg.HeartbeatInterval = 20 * time.Millisecond
	cfg.HeartbeatTimeout = 300 * time.Millisecond
	cfg.LeasePoll = 2 * time.Millisecond
	cfg.LeaseTimeout = 20 * time.Second
	return cfg
}

// checkAttemptInvariants asserts the attempt-accounting contract of task
// records reported by remote workers:
//
//   - per (phase, task), attempts are dense starting at 1 — every lease
//     grant eventually yields exactly one record on a job that completes;
//   - killed attempts carry Killed and a non-empty Err;
//   - reduce tasks succeed exactly once and the success is the last record;
//   - map tasks succeed at least once (a completed map re-executes when the
//     worker hosting its output dies), and any record after the last
//     success is a kill — a regressed map's re-execution can still be in
//     flight when the job's final reduce lands, so its lease is reclaimed
//     rather than reported;
//   - the process backend never launches speculative attempts;
//   - CounterTaskFailures counts exactly the non-killed failures.
func checkAttemptInvariants(t *testing.T, res *mapreduce.Result) {
	t.Helper()
	type taskKey struct {
		phase mapreduce.Phase
		id    int
	}
	byTask := make(map[taskKey][]mapreduce.TaskRecord)
	failures := int64(0)
	for _, r := range res.History.Records() { // sorted by phase, task, attempt
		if r.Speculative {
			t.Errorf("speculative attempt from process backend: %+v", r)
		}
		if r.Killed && r.Err == "" {
			t.Errorf("killed attempt without kill reason: %+v", r)
		}
		if r.Err != "" && !r.Killed {
			failures++
		}
		k := taskKey{r.Phase, r.TaskID}
		byTask[k] = append(byTask[k], r)
	}
	for k, recs := range byTask {
		successes, lastSuccess := 0, -1
		for i, r := range recs {
			if r.Attempt != i+1 {
				t.Errorf("%v task %d: attempt sequence not dense: record %d has attempt %d",
					k.phase, k.id, i, r.Attempt)
			}
			if r.Err == "" && !r.Killed {
				successes++
				lastSuccess = i
			}
		}
		if successes < 1 {
			t.Errorf("%v task %d: no successful attempt", k.phase, k.id)
			continue
		}
		for _, r := range recs[lastSuccess+1:] {
			if !r.Killed {
				t.Errorf("%v task %d: non-killed record after final success: %+v", k.phase, k.id, r)
			}
		}
		if k.phase == mapreduce.PhaseReduce && (successes != 1 || lastSuccess != len(recs)-1) {
			t.Errorf("reduce task %d: %d successful attempts (last record index %d of %d), want exactly one final success",
				k.id, successes, lastSuccess, len(recs))
		}
	}
	if got := res.Counters.Get(mapreduce.CounterTaskFailures); got != failures {
		t.Errorf("CounterTaskFailures = %d, history has %d non-killed failures", got, failures)
	}
}
