package mapreduce_test

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrskyline/internal/cluster"
	"mrskyline/internal/frame"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/spill"
)

// The leased driver is tested against two fake fleets, neither with sockets
// or processes. newFleet's workers are goroutines that pull leases and run
// them for real (RunRemoteMap, RunRemoteReduce), so the cross-driver tables
// in engine_test.go can run their jobs on it. script plays the fleet by hand
// — one Grant, Report, ExpireBefore or WorkerDied at a time, with made-up
// reports — which is how every scheduling decision of the table is pinned.

// closureKind ships a test job's closures to a fake fleet's "workers": the
// spec names the *Job, the builder hands its functions back.
const closureKind = "mapreduce-test/closures"

var (
	shipped    sync.Map // spec → *mapreduce.Job
	shippedSeq atomic.Int64
)

func init() {
	mapreduce.RegisterKind(closureKind, func(spec []byte) (*mapreduce.JobFuncs, error) {
		v, ok := shipped.Load(string(spec))
		if !ok {
			return nil, errors.New("job was never shipped")
		}
		j := v.(*mapreduce.Job)
		return &mapreduce.JobFuncs{NewMapper: j.NewMapper, NewReducer: j.NewReducer, Partition: j.Partition}, nil
	})
}

// ship makes the job runnable on a fake fleet. The in-process drivers ignore
// Kind, so a shipped job still runs on them unchanged.
func ship(job *mapreduce.Job) *mapreduce.Job {
	key := strconv.FormatInt(shippedSeq.Add(1), 10)
	shipped.Store(key, job)
	job.Kind, job.Spec = closureKind, []byte(key)
	return job
}

// fleet is the working fake: one goroutine per worker and an in-memory
// segment store standing in for the workers' own.
type fleet struct {
	l           *mapreduce.Leases
	nodes       []string
	spillBudget int64 // > 0: reduces merge spilled runs, as rpcexec's SpillBudget has them do
	mu          sync.Mutex
	segs        map[[2]int64][][]byte // (job, map task) → framed segment per reducer
}

// newFleet returns a leased engine over workers goroutine workers, stopped
// with the test.
func newFleet(t testing.TB, workers int) *mapreduce.Engine {
	return newSpillingFleet(t, workers, 0)
}

// newSpillingFleet is newFleet with a worker-side spill budget.
func newSpillingFleet(t testing.TB, workers int, spillBudget int64) *mapreduce.Engine {
	t.Helper()
	c, err := cluster.Uniform(workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, l := mapreduce.NewLeasedEngine(c, nil)
	f := &fleet{l: l, nodes: c.Nodes(), spillBudget: spillBudget, segs: make(map[[2]int64][][]byte)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ls, ok := l.Grant(w); ok {
					l.Report(f.run(w, ls))
				} else {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
	}
	t.Cleanup(func() { close(stop); wg.Wait() })
	return e
}

// run executes one lease the way an rpcexec worker does.
func (f *fleet) run(w int, ls mapreduce.Lease) *mapreduce.Report {
	r := &mapreduce.Report{Job: ls.Job, Phase: ls.Phase, Task: ls.Task, Attempt: ls.Attempt, Worker: w}
	task, ok := f.l.Task(ls.Job)
	if !ok {
		r.Err = "job left the table"
		return r
	}
	task.TaskID, task.Attempt, task.Node = ls.Task, ls.Attempt, f.nodes[w]
	if f.spillBudget > 0 {
		task.SpillBudget, task.SpillDir = f.spillBudget, os.TempDir()
	}
	var counters *mapreduce.Counters
	var err error
	if ls.Phase == mapreduce.PhaseMap {
		var segs [][]byte
		if segs, counters, err = mapreduce.RunRemoteMap(&task, ls.Split); err == nil {
			f.mu.Lock()
			f.segs[[2]int64{ls.Job, int64(ls.Task)}] = segs
			f.mu.Unlock()
			for _, seg := range segs {
				r.Bytes = append(r.Bytes, int64(len(seg)))
				r.Checksums = append(r.Checksums, mapreduce.SegmentChecksum(seg))
			}
		}
	} else {
		segs := make([][]byte, len(ls.Maps))
		f.mu.Lock()
		for m := range ls.Maps {
			segs[m] = f.segs[[2]int64{ls.Job, int64(m)}][ls.Task]
			n, _ := mapreduce.SegmentPayloadBytes(segs[m])
			r.ShuffleBytes += n
		}
		f.mu.Unlock()
		r.Output, counters, err = mapreduce.RunRemoteReduce(&task, segs)
	}
	if err != nil {
		r.Err = err.Error()
	} else {
		r.Counters = counters.Dump()
	}
	return r
}

// TestLeasedMatchesWall: the working fleet produces what the wall driver
// does — output, counters, one clean record per task.
func TestLeasedMatchesWall(t *testing.T) {
	input := []string{"a b", "b c", "c d e", "a"}
	want, err := newEngine(t, 3, 1).Run(wordCountJob(input, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := newFleet(t, 3).Run(ship(wordCountJob(input, 3, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := countsFromResult(got), countsFromResult(want); len(g) != len(w) || len(got.Output) != len(want.Output) {
		t.Errorf("counts = %v, want %v", g, w)
	}
	for i := range want.Output {
		if string(got.Output[i].Key) != string(want.Output[i].Key) || string(got.Output[i].Value) != string(want.Output[i].Value) {
			t.Errorf("output[%d] = %s=%s, want %s=%s", i, got.Output[i].Key, got.Output[i].Value, want.Output[i].Key, want.Output[i].Value)
		}
	}
	for _, c := range want.Counters.Snapshot() {
		if g := got.Counters.Get(c.Name); g != c.Value {
			t.Errorf("counter %s = %d, want %d", c.Name, g, c.Value)
		}
	}
	if n := len(got.History.Records()); n != 5 || len(got.History.Failed()) != 0 {
		t.Errorf("history has %d records, want 5 clean ones: %+v", n, got.History.Records())
	}
	if got.ClusterStats.TasksRun != 5 || got.MapTime <= 0 || got.ReduceTime <= 0 {
		t.Errorf("TasksRun = %d, MapTime = %v, ReduceTime = %v", got.ClusterStats.TasksRun, got.MapTime, got.ReduceTime)
	}
}

// TestEmptyRecordAcrossDrivers: a record with an empty key and an empty
// value is a record on every path a segment can take. It sorts first, so a
// spilled run begins with it — which the run merger used to read as "this
// run is drained", handing the reducer a clean, empty input.
func TestEmptyRecordAcrossDrivers(t *testing.T) {
	job := func() *mapreduce.Job {
		return ship(&mapreduce.Job{
			Name:        "empty-record",
			Input:       mapreduce.MemoryInput{Records: []mapreduce.Record{{Key: []byte("b"), Value: []byte("2")}, {}, {Key: []byte("a"), Value: []byte("1")}, {Key: []byte("c")}}},
			NumMappers:  1,
			NumReducers: 1,
			NewMapper: func() mapreduce.Mapper {
				return mapreduce.MapperFuncs{MapFn: func(_ *mapreduce.TaskContext, rec mapreduce.Record, emit mapreduce.Emitter) error {
					emit(rec.Key, rec.Value)
					return nil
				}}
			},
			NewReducer: func() mapreduce.Reducer {
				return mapreduce.ReducerFuncs{ReduceFn: func(_ *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emitter) error {
					for _, v := range values {
						emit(key, v)
					}
					return nil
				}}
			},
		})
	}
	want := []mapreduce.Record{{}, {Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}, {Key: []byte("c")}}
	spilled := newEngine(t, 1, 1)
	spilled.Spill = &spill.Config{Dir: t.TempDir(), Budget: 1 << 20}
	for _, d := range []struct {
		name string
		e    *mapreduce.Engine
	}{
		{"resident", newEngine(t, 1, 1)},
		{"spilled", spilled},
		{"leased", newFleet(t, 1)},
		{"leased+spill", newSpillingFleet(t, 1, 1<<20)},
	} {
		res, err := d.e.Run(job())
		if err != nil {
			t.Errorf("%s: %v", d.name, err)
			continue
		}
		if !reflect.DeepEqual(res.Output, want) {
			t.Errorf("%s: output = %q, want %q", d.name, res.Output, want)
		}
	}
}

// script plays the fleet by hand.
type script struct {
	t    *testing.T
	e    *mapreduce.Engine
	l    *mapreduce.Leases
	done chan int64 // jobDone calls
}

type outcome struct {
	res *mapreduce.Result
	err error
}

func newScript(t *testing.T, workers int) *script {
	t.Helper()
	c, err := cluster.Uniform(workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := &script{t: t, done: make(chan int64, 8)}
	s.e, s.l = mapreduce.NewLeasedEngine(c, func(job int64) { s.done <- job })
	return s
}

// submit runs a job of the given shape; its own functions are never called,
// only its splits (7 records each) ship.
func (s *script) submit(ctx context.Context, mappers, reducers, maxAttempts int) <-chan outcome {
	job := ship(wordCountJob(make([]string, 7*mappers), mappers, reducers))
	job.MaxAttempts = maxAttempts
	out := make(chan outcome, 1)
	go func() {
		res, err := s.e.RunContext(ctx, job)
		out <- outcome{res, err}
	}()
	return out
}

func (s *script) wait(out <-chan outcome) (*mapreduce.Result, error) {
	s.t.Helper()
	select {
	case o := <-out:
		return o.res, o.err
	case <-time.After(10 * time.Second):
		s.t.Fatal("job did not resolve")
		return nil, nil
	}
}

// grant polls like an idle worker until the table leases it something, which
// must be attempt attempt of the given task.
func (s *script) grant(w int, phase mapreduce.Phase, task, attempt int) mapreduce.Lease {
	s.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		ls, ok := s.l.Grant(w)
		if !ok {
			continue
		}
		if ls.Phase != phase || ls.Task != task || ls.Attempt != attempt {
			s.t.Fatalf("worker %d leased %v task %d attempt %d, want %v task %d attempt %d", w, ls.Phase, ls.Task, ls.Attempt, phase, task, attempt)
		}
		return ls
	}
	s.t.Fatalf("worker %d was never granted a lease", w)
	return mapreduce.Lease{}
}

func (s *script) none(w int) {
	s.t.Helper()
	if ls, ok := s.l.Grant(w); ok {
		s.t.Fatalf("worker %d granted %+v, want nothing runnable", w, ls)
	}
}

// report answers a lease from worker w: with a failure when errMsg is set (a
// kill when killed is too), else with a made-up success — a map that read 7
// records and left a byte for each of up to 3 reducers, a reduce that pulled
// 5 bytes, consumed 3 records and emitted its own index.
func (s *script) report(ls mapreduce.Lease, w int, errMsg string, killed bool) bool {
	r := &mapreduce.Report{Job: ls.Job, Phase: ls.Phase, Task: ls.Task, Attempt: ls.Attempt, Worker: w, Err: errMsg, Killed: killed}
	switch {
	case errMsg != "":
	case ls.Phase == mapreduce.PhaseMap:
		r.Bytes, r.Checksums = []int64{1, 1, 1}, []uint64{1, 1, 1}
		r.Counters = mapreduce.CounterDump{Sums: map[string]int64{mapreduce.CounterMapInputRecords: 7}}
	default:
		r.Output = frame.AppendRecord(nil, []byte(strconv.Itoa(ls.Task)), nil)
		r.ShuffleBytes = 5
		r.Counters = mapreduce.CounterDump{Sums: map[string]int64{mapreduce.CounterReduceInputRecords: 3}}
	}
	return s.l.Report(r)
}

func (s *script) ok(ls mapreduce.Lease, w int) {
	s.t.Helper()
	if !s.report(ls, w, "", false) {
		s.t.Fatalf("report for %+v from worker %d was fenced", ls, w)
	}
}

// summary renders a History as "m0#1 m0#2:killed r0#1:error …".
func summary(res *mapreduce.Result) string {
	var parts []string
	for _, r := range res.History.Records() {
		p := r.Phase.String()[:1] + strconv.Itoa(r.TaskID) + "#" + strconv.Itoa(r.Attempt)
		switch {
		case r.Killed:
			p += ":killed"
		case r.Err != "":
			p += ":error"
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, " ")
}

func wantCounters(t *testing.T, res *mapreduce.Result, want map[string]int64) {
	t.Helper()
	for name, w := range want {
		if got := res.Counters.Get(name); got != w {
			t.Errorf("counter %s = %d, want %d", name, got, w)
		}
	}
}

const (
	mapPhase    = mapreduce.PhaseMap
	reducePhase = mapreduce.PhaseReduce
)

// TestLeasedGrantOrder: jobs in submission order, maps before reduces,
// reduces only once every map is done — and a job whose pending work is all
// in flight yields to the next one.
func TestLeasedGrantOrder(t *testing.T) {
	s := newScript(t, 3)
	first := s.submit(context.Background(), 2, 2, 0)
	m0 := s.grant(0, mapPhase, 0, 1)
	if len(m0.Split) == 0 || m0.Maps != nil {
		t.Errorf("map lease = %+v, want a split and no sources", m0)
	}
	m1 := s.grant(1, mapPhase, 1, 1)
	s.none(2) // maps in flight, reduces gated

	second := s.submit(context.Background(), 1, 1, 0)
	b0 := s.grant(2, mapPhase, 0, 1) // the idle worker serves the younger job meanwhile
	if b0.Job == m0.Job {
		t.Fatalf("worker 2 leased %+v while the first job's maps were all out", b0)
	}
	s.ok(m0, 0)
	s.none(0) // one map still out, and the second job's only map too
	s.ok(m1, 1)
	r0 := s.grant(0, reducePhase, 0, 1) // the older job's reduces come before the younger's
	if r0.Job != m0.Job || len(r0.Maps) != 2 || r0.Maps[0].Worker != 0 || r0.Maps[1].Worker != 1 || r0.Split != nil {
		t.Errorf("reduce lease = %+v, want both maps' reports in task order", r0)
	}
	r1 := s.grant(1, reducePhase, 1, 1)
	s.ok(r1, 1)
	s.ok(r0, 0)
	res, err := s.wait(first)
	if err != nil {
		t.Fatal(err)
	}
	if got := summary(res); got != "m0#1 m1#1 r0#1 r1#1" {
		t.Errorf("history = %s", got)
	}
	if len(res.Output) != 2 || string(res.Output[0].Key) != "0" || string(res.Output[1].Key) != "1" {
		t.Errorf("output = %v, want the reduces' records in task order", res.Output)
	}
	wantCounters(t, res, map[string]int64{
		mapreduce.CounterMapInputRecords: 14, mapreduce.CounterReduceInputRecords: 6, mapreduce.CounterShuffleBytes: 10,
	})
	if cs := res.ClusterStats; cs.TasksRun != 4 || cs.Retries != 0 || cs.PerNode["node0"] != 2 {
		t.Errorf("ClusterStats = %+v", cs)
	}
	if id := <-s.done; id != m0.Job {
		t.Errorf("jobDone(%d), want %d", id, m0.Job)
	}
	if _, ok := s.l.Task(m0.Job); ok {
		t.Error("a finished job is still in the table")
	}
	if info, ok := s.l.Task(b0.Job); !ok || info.Job != "wordcount" || info.NumMappers != 1 || info.NumReducers != 1 {
		t.Errorf("Task(second job) = %+v, %v", info, ok)
	}
	s.ok(b0, 2)
	s.ok(s.grant(2, reducePhase, 0, 1), 2)
	if _, err := s.wait(second); err != nil {
		t.Fatal(err)
	}
}

// TestLeasedBudgetKillsAndFencing: expiry and a peer's death are kills — on
// record, re-leased as the next attempt, never charged — while failures are
// charged, and failures == MaxAttempts fails the job with the partial
// Result. Reports that do not match the task's current lease are dropped.
func TestLeasedBudgetKillsAndFencing(t *testing.T) {
	s := newScript(t, 2)
	out := s.submit(context.Background(), 1, 1, 2)

	m := s.grant(0, mapPhase, 0, 1)
	if n := s.l.ExpireBefore(time.Now().Add(-time.Hour)); n != 0 {
		t.Fatalf("ExpireBefore(an hour ago) = %d, want 0", n)
	}
	if n := s.l.ExpireBefore(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("ExpireBefore(in an hour) = %d, want 1", n)
	}
	if s.report(m, 0, "", false) {
		t.Error("report on an expired lease was accepted")
	}
	m = s.grant(1, mapPhase, 0, 2)
	for name, stale := range map[string]mapreduce.Report{
		"wrong worker":  {Job: m.Job, Task: 0, Attempt: 2, Worker: 0},
		"wrong attempt": {Job: m.Job, Task: 0, Attempt: 1, Worker: 1},
		"unknown job":   {Job: m.Job + 9, Task: 0, Attempt: 2, Worker: 1},
		"unknown task":  {Job: m.Job, Task: 5, Attempt: 2, Worker: 1},
		"phase not yet": {Job: m.Job, Phase: reducePhase, Task: 0, Attempt: 2, Worker: 1},
	} {
		if s.l.Report(&stale) {
			t.Errorf("%s: stale report accepted", name)
		}
	}
	if !s.report(m, 1, "fetch from node0: connection refused", true) {
		t.Fatal("kill report fenced")
	}
	if !s.report(s.grant(0, mapPhase, 0, 3), 0, "boom", false) {
		t.Fatal("failure report fenced")
	}
	s.ok(s.grant(0, mapPhase, 0, 4), 0)
	s.report(s.grant(1, reducePhase, 0, 1), 1, "bang", false)
	s.report(s.grant(1, reducePhase, 0, 2), 1, "bang again", false)

	res, err := s.wait(out)
	if err == nil || !strings.Contains(err.Error(), "failed after 2 attempts: bang again") {
		t.Fatalf("err = %v, want the budget's exhaustion", err)
	}
	if res == nil {
		t.Fatal("failed job returned no partial result")
	}
	if got := summary(res); got != "m0#1:killed m0#2:killed m0#3:error m0#4 r0#1:error r0#2:error" {
		t.Errorf("history = %s", got)
	}
	recs := res.History.Records()
	if !strings.Contains(recs[0].Err, "lease expired") || recs[0].Node != "node0" || !strings.Contains(recs[1].Err, "connection refused") {
		t.Errorf("kill records = %+v, %+v", recs[0], recs[1])
	}
	wantCounters(t, res, map[string]int64{mapreduce.CounterTaskFailures: 3, mapreduce.CounterMapInputRecords: 7})
	if got := res.ClusterStats.Retries; got != 4 {
		t.Errorf("ClusterStats.Retries = %d, want 4", got)
	}
}

// TestLeasedHolderDeath: a map whose holder dies re-executes, and counts
// once either way — before the map barrier the lost attempt's staged
// counters go with it, after the barrier the repair's are dropped. Reduces
// wait for the repair and are pointed at the new holder.
func TestLeasedHolderDeath(t *testing.T) {
	s := newScript(t, 3)
	out := s.submit(context.Background(), 2, 1, 0)

	s.ok(s.grant(0, mapPhase, 0, 1), 0)
	s.l.WorkerDied(0, "test") // before the barrier: map 1 has not run
	s.none(0)                 // the dead lease nothing
	s.ok(s.grant(1, mapPhase, 0, 2), 1)
	s.ok(s.grant(1, mapPhase, 1, 1), 1)

	r := s.grant(2, reducePhase, 0, 1)
	if r.Maps[0].Worker != 1 || r.Maps[1].Worker != 1 {
		t.Fatalf("reduce sources = %+v, %+v, want both held by worker 1", r.Maps[0], r.Maps[1])
	}
	s.l.WorkerDied(1, "test") // after the barrier: both maps are lost
	s.l.WorkerDied(1, "again")
	if !s.report(r, 2, "fetch map 0 from node1: connection refused", true) {
		t.Fatal("kill report fenced")
	}
	s.ok(s.grant(2, mapPhase, 0, 3), 2)
	s.ok(s.grant(2, mapPhase, 1, 2), 2)
	r = s.grant(2, reducePhase, 0, 2)
	if r.Maps[0].Worker != 2 || r.Maps[1].Worker != 2 {
		t.Fatalf("re-leased reduce sources = %+v, %+v, want both held by worker 2", r.Maps[0], r.Maps[1])
	}
	s.ok(r, 2)

	res, err := s.wait(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := summary(res); got != "m0#1 m0#2 m0#3 m1#1 m1#2 r0#1:killed r0#2" {
		t.Errorf("history = %s", got)
	}
	wantCounters(t, res, map[string]int64{
		mapreduce.CounterMapInputRecords: 14, // 7 a map, however often it ran
		mapreduce.CounterNodeFailures:    2,
		mapreduce.CounterTaskFailures:    0,
	})
}

// TestLeasedAllWorkersDead: with the last worker gone the running job fails,
// and so does any job submitted afterwards — at once, not at a timeout.
func TestLeasedAllWorkersDead(t *testing.T) {
	s := newScript(t, 1)
	out := s.submit(context.Background(), 1, 1, 0)
	s.grant(0, mapPhase, 0, 1)
	s.l.WorkerDied(0, "heartbeat timeout")
	for _, out := range []<-chan outcome{out, s.submit(context.Background(), 1, 1, 0)} {
		res, err := s.wait(out)
		if err == nil || !strings.Contains(err.Error(), "all workers dead") || res == nil {
			t.Fatalf("res = %v, err = %v, want 'all workers dead' and a partial result", res, err)
		}
	}
}

// TestLeasedCancel: when ctx ends the driver returns at once with ctx's
// error and the partial Result, the lease still out on record as killed, and
// does not wait for the worker, whose late report finds no job.
func TestLeasedCancel(t *testing.T) {
	s := newScript(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	out := s.submit(ctx, 2, 1, 0)
	s.ok(s.grant(0, mapPhase, 0, 1), 0)
	m1 := s.grant(1, mapPhase, 1, 1)
	cancel()
	res, err := s.wait(out)
	if !errors.Is(err, context.Canceled) || res == nil {
		t.Fatalf("res = %v, err = %v, want context.Canceled and a partial result", res, err)
	}
	if got := summary(res); got != "m0#1 m1#1:killed" {
		t.Errorf("history = %s", got)
	}
	if rec := res.History.Records()[1]; !strings.Contains(rec.Err, "job over") {
		t.Errorf("kill record = %+v", rec)
	}
	wantCounters(t, res, map[string]int64{mapreduce.CounterMapInputRecords: 7})
	if s.report(m1, 1, "", false) {
		t.Error("report for a cancelled job was accepted")
	}
	if id := <-s.done; id != m1.Job {
		t.Errorf("jobDone(%d), want %d", id, m1.Job)
	}
}
