package rpcexec

import (
	"context"
	"strings"
	"testing"
	"time"

	"mrskyline/internal/frame"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
)

// The master unit tests drive the RPC handlers directly — no processes, no
// worker sockets — against the real leased engine behind them. What they pin
// is the master's own: the registry, the heartbeat control plane, the
// janitor's two clocks, and the translation between the wire and the lease
// table. Scheduling semantics (ordering, fencing, budgets, regression) are
// the engine's and are pinned in internal/mapreduce's leased tests.

// newTestMaster builds a master whose janitor never fires on its own (the
// tests that want it pass their own timings) and registers n fake workers.
func newTestMaster(t *testing.T, cfg Config) *master {
	t.Helper()
	if cfg.LeaseTimeout == 0 {
		cfg.LeaseTimeout, cfg.HeartbeatInterval, cfg.HeartbeatTimeout = time.Hour, time.Hour, time.Hour
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMaster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.stop)
	for i := 0; i < cfg.Workers; i++ {
		var reply RegisterReply
		if err := m.Register(&RegisterArgs{Addr: "127.0.0.1:0", PID: 1000 + i, Index: i}, &reply); err != nil {
			t.Fatalf("Register: %v", err)
		}
		if reply.WorkerID != i {
			t.Fatalf("Register assigned id %d, want %d", reply.WorkerID, i)
		}
		if reply.HeartbeatEveryNs != int64(cfg.HeartbeatInterval) || reply.LeasePollEveryNs <= 0 {
			t.Fatalf("Register reply timings = %+v", reply)
		}
	}
	return m
}

type jobOutcome struct {
	res *mapreduce.Result
	err error
}

// startJob submits a sum job to the master's engine; the outcome arrives
// once the test has played the workers' part.
func startJob(ctx context.Context, m *master, mappers, reducers int) <-chan jobOutcome {
	return startJobWithBudget(ctx, m, mappers, reducers, 0)
}

func startJobWithBudget(ctx context.Context, m *master, mappers, reducers, maxAttempts int) <-chan jobOutcome {
	job := sumJob("unit", 3, 12, mappers, reducers, 0, 0)
	job.MaxAttempts = maxAttempts
	out := make(chan jobOutcome, 1)
	go func() {
		res, err := m.eng.RunContext(ctx, job)
		out <- jobOutcome{res, err}
	}()
	return out
}

func await(t *testing.T, out <-chan jobOutcome) jobOutcome {
	t.Helper()
	select {
	case o := <-out:
		return o
	case <-time.After(10 * time.Second):
		t.Fatal("job did not resolve")
		return jobOutcome{}
	}
}

// leaseOnce is one Lease call; lease polls like an idle worker until a task
// (or an exit) comes back.
func leaseOnce(t *testing.T, m *master, worker int) *LeaseReply {
	t.Helper()
	var reply LeaseReply
	if err := m.Lease(&LeaseArgs{WorkerID: worker}, &reply); err != nil {
		t.Fatalf("Lease(worker %d): %v", worker, err)
	}
	return &reply
}

func lease(t *testing.T, m *master, worker int) *LeaseReply {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if l := leaseOnce(t, m, worker); l.Kind != LeaseNone {
			return l
		}
	}
	t.Fatalf("worker %d was never leased a task", worker)
	return nil
}

func mapDone(t *testing.T, m *master, l *LeaseReply, worker int, segBytes []int64, counters mapreduce.CounterDump) {
	t.Helper()
	checks := make([]uint64, len(segBytes))
	for i, b := range segBytes {
		if b > 0 {
			checks[i] = uint64(100 + i)
		}
	}
	err := m.MapDone(&MapDoneArgs{
		WorkerID: worker, JobID: l.JobID, TaskID: l.TaskID, Attempt: l.Attempt,
		Checksums: checks, Bytes: segBytes, Counters: counters,
	}, &Empty{})
	if err != nil {
		t.Fatalf("MapDone: %v", err)
	}
}

func reduceDone(t *testing.T, m *master, l *LeaseReply, worker int, args ReduceDoneArgs) {
	t.Helper()
	args.WorkerID, args.JobID, args.TaskID, args.Attempt = worker, l.JobID, l.TaskID, l.Attempt
	if err := m.ReduceDone(&args, &Empty{}); err != nil {
		t.Fatalf("ReduceDone: %v", err)
	}
}

func counter(tr *obs.Tracer, name string) int64 {
	for _, c := range tr.Metrics().Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestLeaseOrderingAndReduceGating: maps go out before reduces and reduces
// only once every map has reported, and a grant reaches the wire whole — a
// map lease carries its split, a reduce lease the fetch list built from the
// map reports (non-empty segments only, in map-task order, at the holders'
// addresses) — as the reports' payloads reach the Result.
func TestLeaseOrderingAndReduceGating(t *testing.T) {
	tr := obs.New()
	m := newTestMaster(t, Config{Workers: 2, Trace: tr})
	out := startJob(context.Background(), m, 2, 2)

	l0, l1 := lease(t, m, 0), lease(t, m, 1)
	if l0.Kind != LeaseMap || l1.Kind != LeaseMap || l0.TaskID == l1.TaskID {
		t.Fatalf("expected two distinct map leases, got %+v and %+v", l0, l1)
	}
	if len(l0.Split) == 0 {
		t.Error("map lease carries no split payload")
	}
	if l := leaseOnce(t, m, 0); l.Kind != LeaseNone {
		t.Fatalf("lease during map flight = %q, want none", l.Kind)
	}
	segs := map[int][]int64{0: {4, 0}, 1: {3, 5}} // map 0 feeds reduce 0 only
	mapDone(t, m, l0, 0, segs[l0.TaskID], mapreduce.CounterDump{})
	if l := leaseOnce(t, m, 0); l.Kind != LeaseNone {
		t.Fatalf("reduce leased before all maps done: %+v", l)
	}
	mapDone(t, m, l1, 1, segs[l1.TaskID], mapreduce.CounterDump{})

	r0, r1 := lease(t, m, 0), lease(t, m, 1)
	for _, r := range []*LeaseReply{r0, r1} {
		if r.Kind != LeaseReduce {
			t.Fatalf("lease after maps done = %+v, want reduce", r)
		}
		if want := 2 - r.TaskID; len(r.Sources) != want {
			t.Fatalf("reduce %d sources = %+v, want %d entries", r.TaskID, r.Sources, want)
		}
		for i, src := range r.Sources {
			if i > 0 && r.Sources[i-1].MapTask >= src.MapTask {
				t.Error("sources not in map-task order")
			}
			if src.Addr != "127.0.0.1:0" || src.Bytes != segs[src.MapTask][r.TaskID] || src.Checksum != uint64(100+r.TaskID) {
				t.Errorf("reduce %d source %+v does not match map %d's report", r.TaskID, src, src.MapTask)
			}
		}
	}
	for worker, r := range []*LeaseReply{r0, r1} {
		reduceDone(t, m, r, worker, ReduceDoneArgs{
			FetchFailedWorker: -1, Output: frame.AppendRecord(nil, []byte{'k', byte('0' + r.TaskID)}, []byte("v")),
			PayloadBytes: 6, WireBytes: 10,
		})
	}
	o := await(t, out)
	if o.err != nil {
		t.Fatalf("job error = %v", o.err)
	}
	if got := formatKeys(o.res.Output); got != "k0 k1" {
		t.Errorf("output keys = %q, want reduce order k0 k1", got)
	}
	if got := o.res.Counters.Get(mapreduce.CounterShuffleBytes); got != 12 {
		t.Errorf("CounterShuffleBytes = %d, want the reports' 12", got)
	}
	if g, w := counter(tr, "rpc.lease.granted"), counter(tr, "rpc.shuffle.wire.bytes"); g != 4 || w != 20 {
		t.Errorf("rpc.lease.granted = %d, rpc.shuffle.wire.bytes = %d, want 4 and 20", g, w)
	}
}

func formatKeys(recs []mapreduce.Record) string {
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = string(r.Key)
	}
	return strings.Join(keys, " ")
}

// TestLeaseExpiryRequeuesAsKilled: the lease-deadline clock is the master's.
// A lease out longer than LeaseTimeout is reclaimed by the janitor, counted
// in rpc.lease.expired and on record as killed, its holder's late report
// fenced, and the task re-leased as the next attempt.
func TestLeaseExpiryRequeuesAsKilled(t *testing.T) {
	tr := obs.New()
	m := newTestMaster(t, Config{
		Workers: 2, Trace: tr,
		LeaseTimeout: 200 * time.Millisecond, HeartbeatInterval: 10 * time.Millisecond, HeartbeatTimeout: time.Hour,
	})
	out := startJob(context.Background(), m, 1, 1)
	l := lease(t, m, 0)
	if l.Kind != LeaseMap || l.Attempt != 1 {
		t.Fatalf("first lease = %+v", l)
	}
	l2 := lease(t, m, 1) // nothing to lease until the janitor reclaims attempt 1
	if l2.Kind != LeaseMap || l2.Attempt != 2 {
		t.Fatalf("post-expiry lease = %+v, want map attempt 2", l2)
	}
	mapDone(t, m, l, 0, []int64{1}, mapreduce.CounterDump{}) // stale: fenced
	mapDone(t, m, l2, 1, []int64{1}, mapreduce.CounterDump{})
	r := lease(t, m, 1)
	if r.Kind != LeaseReduce || len(r.Sources) != 1 || r.Sources[0].WorkerID != 1 {
		t.Fatalf("reduce lease = %+v, want one source held by worker 1 (the accepted report's)", r)
	}
	reduceDone(t, m, r, 1, ReduceDoneArgs{FetchFailedWorker: -1})
	o := await(t, out)
	if o.err != nil {
		t.Fatal(o.err)
	}
	recs := o.res.History.Records()
	if len(recs) != 3 || !recs[0].Killed || !strings.Contains(recs[0].Err, "lease expired") || recs[0].Node != "worker-0" {
		t.Fatalf("history = %+v, want map attempt 1 killed by expiry on worker-0", recs)
	}
	if got := o.res.Counters.Get(mapreduce.CounterTaskFailures); got != 0 {
		t.Fatalf("CounterTaskFailures = %d, expiry must not count as failure", got)
	}
	if got := counter(tr, "rpc.lease.expired"); got != 1 {
		t.Fatalf("rpc.lease.expired = %d, want 1", got)
	}
}

// TestTaskFailureBudget: task errors travel in the reports and are charged;
// MaxAttempts of them fail the job, with every attempt on record.
func TestTaskFailureBudget(t *testing.T) {
	m := newTestMaster(t, Config{Workers: 1})
	out := startJobWithBudget(context.Background(), m, 1, 1, 2) // two strikes
	for attempt := 1; attempt <= 2; attempt++ {
		l := lease(t, m, 0)
		if l.Attempt != attempt {
			t.Fatalf("lease attempt = %d, want %d", l.Attempt, attempt)
		}
		err := m.MapDone(&MapDoneArgs{
			WorkerID: 0, JobID: l.JobID, TaskID: l.TaskID, Attempt: l.Attempt, Err: "synthetic task error",
		}, &Empty{})
		if err != nil {
			t.Fatalf("MapDone: %v", err)
		}
	}
	o := await(t, out)
	if o.err == nil || !strings.Contains(o.err.Error(), "failed after 2 attempts: synthetic task error") {
		t.Fatalf("job error = %v, want MaxAttempts failure", o.err)
	}
	if got := o.res.Counters.Get(mapreduce.CounterTaskFailures); got != 2 {
		t.Fatalf("CounterTaskFailures = %d, want 2", got)
	}
	if failed := o.res.History.Failed(); len(failed) != 2 {
		t.Fatalf("history.Failed() = %d records, want 2", len(failed))
	}
}

// TestAllWorkersDeadFailsJobs: the liveness clock is the master's too.
// Workers that stop heartbeating are declared dead by the janitor, told to
// exit if they ever call again, and with none left the job fails.
func TestAllWorkersDeadFailsJobs(t *testing.T) {
	tr := obs.New()
	m := newTestMaster(t, Config{
		Workers: 1, Trace: tr,
		LeaseTimeout: time.Hour, HeartbeatInterval: 10 * time.Millisecond, HeartbeatTimeout: 30 * time.Millisecond,
	})
	out := startJob(context.Background(), m, 1, 1)
	lease(t, m, 0)
	o := await(t, out)
	if o.err == nil || !strings.Contains(o.err.Error(), "all workers dead") {
		t.Fatalf("job error = %v, want 'all workers dead'", o.err)
	}
	if got := o.res.Counters.Get(mapreduce.CounterNodeFailures); got != 1 {
		t.Errorf("CounterNodeFailures = %d, want 1", got)
	}
	if got := counter(tr, "rpc.worker.deaths"); got != 1 {
		t.Errorf("rpc.worker.deaths = %d, want 1", got)
	}
	if l := leaseOnce(t, m, 0); l.Kind != LeaseExit {
		t.Errorf("dead worker lease = %q, want exit", l.Kind)
	}
	var hb HeartbeatReply
	if err := m.Heartbeat(&HeartbeatArgs{WorkerID: 0}, &hb); err != nil || !hb.Exit {
		t.Errorf("dead worker heartbeat = %+v, %v; want Exit", hb, err)
	}
}

// TestReduceFetchFailureKillsServingWorker: a reducer that cannot reach a
// peer mid-shuffle reports evidence of the peer's death. The master acts on
// it at once — no heartbeat timeout involved — and hands the attempt to the
// engine as killed, not failed.
func TestReduceFetchFailureKillsServingWorker(t *testing.T) {
	tr := obs.New()
	m := newTestMaster(t, Config{Workers: 2, Trace: tr})
	out := startJob(context.Background(), m, 1, 1)

	mapDone(t, m, lease(t, m, 0), 0, []int64{2}, mapreduce.CounterDump{})
	r := lease(t, m, 1)
	if r.Kind != LeaseReduce {
		t.Fatalf("lease = %+v, want reduce", r)
	}
	reduceDone(t, m, r, 1, ReduceDoneArgs{Err: "fetch map 0 from worker-0: connection refused", FetchFailedWorker: 0})
	m.mu.Lock()
	alive := m.workers[0].alive
	m.markWorkerDead(0, "again") // idempotent
	m.mu.Unlock()
	if alive {
		t.Fatal("worker 0 still alive after fetch-failure evidence")
	}
	if got := counter(tr, "rpc.worker.deaths"); got != 1 {
		t.Errorf("rpc.worker.deaths = %d, want 1", got)
	}

	// The lost map comes back to the survivor before the reduce does.
	lm := lease(t, m, 1)
	if lm.Kind != LeaseMap || lm.Attempt != 2 {
		t.Fatalf("lease after the holder died = %+v, want map attempt 2", lm)
	}
	mapDone(t, m, lm, 1, []int64{2}, mapreduce.CounterDump{})
	r2 := lease(t, m, 1)
	if r2.Kind != LeaseReduce || r2.Attempt != 2 || len(r2.Sources) != 1 || r2.Sources[0].WorkerID != 1 {
		t.Fatalf("re-leased reduce = %+v, want attempt 2 fetching from worker 1", r2)
	}
	reduceDone(t, m, r2, 1, ReduceDoneArgs{FetchFailedWorker: -1})
	o := await(t, out)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if got := o.res.Counters.Get(mapreduce.CounterTaskFailures); got != 0 {
		t.Errorf("CounterTaskFailures = %d, fetch failure must not charge the budget", got)
	}
	if got := o.res.Counters.Get(mapreduce.CounterNodeFailures); got != 1 {
		t.Errorf("CounterNodeFailures = %d, want 1 (the duplicate death is a no-op)", got)
	}
	checkAttemptInvariants(t, o.res)
}

func TestHeartbeatControlPlane(t *testing.T) {
	m := newTestMaster(t, Config{Workers: 1})

	var hb HeartbeatReply
	if err := m.Heartbeat(&HeartbeatArgs{WorkerID: 7}, &hb); err == nil {
		t.Error("heartbeat from unknown worker: want error")
	}
	if err := m.Lease(&LeaseArgs{WorkerID: 7}, &LeaseReply{}); err == nil {
		t.Error("lease to unknown worker: want error")
	}
	if err := m.Heartbeat(&HeartbeatArgs{WorkerID: 0, PrevRTTNs: 1234}, &hb); err != nil || hb.Exit {
		t.Fatalf("heartbeat = %+v, %v; want no exit", hb, err)
	}

	// A finished job's id rides the next heartbeat as a drop notice, once.
	ctx, cancel := context.WithCancel(context.Background())
	out := startJob(ctx, m, 1, 1)
	l := lease(t, m, 0)
	cancel()
	if o := await(t, out); o.res == nil || o.err == nil {
		t.Fatalf("cancelled job = %+v, want the context's error and a partial result", o)
	}
	if err := m.Heartbeat(&HeartbeatArgs{WorkerID: 0}, &hb); err != nil {
		t.Fatal(err)
	}
	if len(hb.DropJobs) != 1 || hb.DropJobs[0] != l.JobID {
		t.Fatalf("DropJobs = %v, want [%d]", hb.DropJobs, l.JobID)
	}
	if err := m.Heartbeat(&HeartbeatArgs{WorkerID: 0}, &hb); err != nil || len(hb.DropJobs) != 0 {
		t.Fatalf("second heartbeat DropJobs = %v, want empty", hb.DropJobs)
	}

	m.beginShutdown()
	if err := m.Heartbeat(&HeartbeatArgs{WorkerID: 0}, &hb); err != nil || !hb.Exit {
		t.Fatalf("heartbeat after shutdown = %+v, want Exit", hb)
	}
	if l := leaseOnce(t, m, 0); l.Kind != LeaseExit {
		t.Fatalf("lease after shutdown = %q, want exit", l.Kind)
	}
}

// TestStaleReportsAreDropped: reports that answer no current lease — unknown
// job, task or worker, wrong attempt, a job already resolved — change nothing.
func TestStaleReportsAreDropped(t *testing.T) {
	m := newTestMaster(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	out := startJob(ctx, m, 1, 1)
	l := lease(t, m, 0)
	stale := func(mutate func(*LeaseReply), worker int) {
		bad := *l
		mutate(&bad)
		mapDone(t, m, &bad, worker, []int64{1}, mapreduce.CounterDump{})
		reduceDone(t, m, &bad, worker, ReduceDoneArgs{FetchFailedWorker: -1})
	}
	stale(func(b *LeaseReply) { b.JobID = 999 }, 0)
	stale(func(b *LeaseReply) { b.TaskID = 99 }, 0)
	stale(func(b *LeaseReply) { b.TaskID = -1 }, 0)
	stale(func(b *LeaseReply) { b.Attempt = 7 }, 0)
	stale(func(*LeaseReply) {}, 7)
	if l2 := leaseOnce(t, m, 0); l2.Kind != LeaseNone {
		t.Fatalf("stale reports freed or finished the task: leased %+v", l2)
	}

	// A cancelled job drops its late reports too, and is forgotten.
	cancel()
	o := await(t, out)
	if got := len(o.res.History.Records()); got != 1 || !o.res.History.Records()[0].Killed {
		t.Fatalf("history = %+v, want only the lease killed at cancellation", o.res.History.Records())
	}
	mapDone(t, m, l, 0, []int64{1}, mapreduce.CounterDump{})
	if err := m.JobInfo(&JobInfoArgs{JobID: l.JobID}, &JobInfoReply{}); err == nil {
		t.Error("JobInfo for a resolved job: want error")
	}
}

func TestJobInfo(t *testing.T) {
	m := newTestMaster(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	out := startJob(ctx, m, 2, 3)
	l := lease(t, m, 0)
	var info JobInfoReply
	if err := m.JobInfo(&JobInfoArgs{JobID: l.JobID}, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "unit" || info.Kind != testSumKind || info.NumMappers != 2 || info.NumReducers != 3 || len(info.Spec) == 0 {
		t.Fatalf("JobInfo = %+v", info)
	}
	cancel()
	await(t, out)
}
