package rpcexec

import (
	"context"
	"testing"

	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
)

// A map task re-executed because the worker holding its output died counts
// once. The master used to merge an attempt's counters when it accepted the
// report and never took them back when the output was lost, so every
// regression double-counted the task — map.input.records, and through the
// grid jobs' counters Stats.DominanceTests and ShuffleBytes.

// TestWorkerDeathRegressesDoneMaps drives the repro through the RPC
// handlers: worker 0 completes map 0 (7 input records) and dies before map 1
// is out; its done map regresses, it is told to exit, and worker 1 runs both.
func TestWorkerDeathRegressesDoneMaps(t *testing.T) {
	tr := obs.New()
	m := newTestMaster(t, Config{Workers: 2, Trace: tr})
	out := startJob(context.Background(), m, 2, 1)
	read7 := mapreduce.CounterDump{Sums: map[string]int64{mapreduce.CounterMapInputRecords: 7}}

	mapDone(t, m, lease(t, m, 0), 0, []int64{3}, read7)
	m.mu.Lock()
	m.markWorkerDead(0, "unit test")
	m.mu.Unlock()
	if l := leaseOnce(t, m, 0); l.Kind != LeaseExit {
		t.Fatalf("dead worker lease = %q, want exit", l.Kind)
	}
	for task := 0; task < 2; task++ {
		l := lease(t, m, 1)
		if l.Kind != LeaseMap || l.TaskID != task || l.Attempt != 2-task {
			t.Fatalf("lease = %+v, want map %d attempt %d", l, task, 2-task)
		}
		mapDone(t, m, l, 1, []int64{3}, read7)
	}
	reduceDone(t, m, lease(t, m, 1), 1, ReduceDoneArgs{FetchFailedWorker: -1})
	o := await(t, out)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if got := o.res.Counters.Get(mapreduce.CounterMapInputRecords); got != 14 {
		t.Errorf("%s = %d, want 14: two maps of 7 records, one of them run twice", mapreduce.CounterMapInputRecords, got)
	}
	if got := o.res.Counters.Get(mapreduce.CounterNodeFailures); got != 1 {
		t.Errorf("CounterNodeFailures = %d, want 1", got)
	}
	if got := counter(tr, "rpc.worker.deaths"); got != 1 {
		t.Errorf("rpc.worker.deaths = %d, want 1", got)
	}
	checkAttemptInvariants(t, o.res)
}

// TestChaosCountersMatchFaultFree is the same property end to end: after a
// worker is SIGKILLed while serving a fetch, or in the middle of a reduce —
// either way taking completed map output with it — the job's record
// counters are the fault-free run's.
func TestChaosCountersMatchFaultFree(t *testing.T) {
	const keys, records, mappers, reducers = 6, 90, 4, 3 // runChaosSum's job
	clean, err := newProcExec(t, Config{Workers: 2}).RunContext(context.Background(),
		sumJob("clean", keys, records, mappers, reducers, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if got := clean.Counters.Get(mapreduce.CounterMapInputRecords); got != records {
		t.Fatalf("fault-free %s = %d, want %d", mapreduce.CounterMapInputRecords, got, records)
	}
	for _, event := range []string{ChaosServe, ChaosReduce} {
		c := runChaosSum(t, []string{event}, 0)
		for _, name := range []string{
			mapreduce.CounterMapInputRecords, mapreduce.CounterMapOutputRecords, mapreduce.CounterReduceInputRecords,
		} {
			if got, want := c.res.Counters.Get(name), clean.Counters.Get(name); got != want {
				t.Errorf("chaos %q: %s = %d, fault-free run has %d", event, name, got, want)
			}
		}
	}
}
