package rpcexec

import (
	"context"
	"testing"
	"time"

	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
)

// The chaos suite SIGKILLs live worker processes at deterministic points —
// mid-map, mid-reduce, while fetching a shuffle segment, and while serving
// one — and asserts the lease/heartbeat machinery completes the job with
// exactly the output a fault-free run produces.
//
// Layout forcing: the sum job's task sleeps (10ms) dwarf the lease poll
// (2ms), so while one worker holds a task the other reliably leases the
// next pending one. That spreads maps across both workers, which makes
// every reduce depend on a remote segment — the precondition for the
// fetch-side and serve-side kills and for exercising done-map regression.

// chaosResult bundles what every chaos scenario asserts over.
type chaosResult struct {
	res       *mapreduce.Result
	tr        *obs.Tracer
	killedPID int
}

// runChaosSum runs the sum job against workers seeded with the given chaos
// specs and returns the survivors' result. chaosWorker is the index
// expected to die.
func runChaosSum(t *testing.T, chaos []string, chaosWorker int) chaosResult {
	t.Helper()
	return runChaos(t, chaos, chaosWorker, false)
}

// runChaos is runChaosSum; gated holds every other worker's map attempts
// until chaosWorker is dead, so it leases every map it can before its kill.
func runChaos(t *testing.T, chaos []string, chaosWorker int, gated bool) chaosResult {
	t.Helper()
	tr := obs.New()
	pe := newProcExec(t, fastTimings(Config{Workers: 2, Chaos: chaos, Trace: tr}))
	pids := pe.WorkerPIDs()

	const keys, records, mappers, reducers = 6, 90, 4, 3
	spec := sumSpec{MapSleepMs: 10, ReduceSleepMs: 10}
	if gated {
		spec.AwaitDeathOf = pids[chaosWorker]
	}
	res, err := pe.RunContext(context.Background(), sumJobOf("chaos", keys, records, mappers, reducers, spec))
	if err != nil {
		t.Fatalf("chaos job did not recover: %v", err)
	}
	if want := sumJobExpected(keys, records, reducers); !recordsEqual(res.Output, want) {
		t.Fatalf("chaos output mismatch:\n got %s\nwant %s", formatRecords(res.Output), formatRecords(want))
	}
	return chaosResult{res: res, tr: tr, killedPID: pids[chaosWorker]}
}

// assertDeathObserved checks the telemetry and bookkeeping a worker death
// must leave behind, and that the killed process is really gone.
func assertDeathObserved(t *testing.T, c chaosResult) {
	t.Helper()
	deaths := int64(0)
	for _, ctr := range c.tr.Metrics().Snapshot().Counters {
		if ctr.Name == "rpc.worker.deaths" {
			deaths = ctr.Value
		}
	}
	if deaths < 1 {
		t.Error("rpc.worker.deaths = 0, want >= 1")
	}
	if got := c.res.Counters.Get(mapreduce.CounterNodeFailures); got < 1 {
		t.Errorf("CounterNodeFailures = %d, want >= 1", got)
	}
	killed := 0
	for _, r := range c.res.History.Records() {
		if r.Killed {
			killed++
		}
	}
	if killed < 1 {
		t.Error("history has no killed attempts, want >= 1")
	}
	// The worker really died and was reaped: SIGKILL leaves no survivor
	// and the executor's immediate Wait leaves no zombie.
	deadline := time.Now().Add(2 * time.Second)
	for processAlive(c.killedPID) {
		if time.Now().After(deadline) {
			t.Fatalf("killed worker pid %d still in the process table", c.killedPID)
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkAttemptInvariants(t, c.res)
}

// TestChaosKillDuringMap: worker 0 SIGKILLs itself at the start of its
// first map attempt. The heartbeat janitor declares it dead, its leased map
// is requeued as killed, and worker 1 finishes the job alone.
func TestChaosKillDuringMap(t *testing.T) {
	c := runChaosSum(t, []string{ChaosMap}, 0)
	assertDeathObserved(t, c)
	killedMaps := 0
	for _, r := range c.res.History.Records() {
		if r.Phase == mapreduce.PhaseMap && r.Killed {
			killedMaps++
		}
	}
	if killedMaps < 1 {
		t.Error("no killed map attempt recorded")
	}
}

// TestChaosKillDuringReduce: worker 0 dies after the shuffle fetch of its
// first reduce attempt, taking its completed map outputs with it. The maps
// it hosted regress to pending and re-execute (Hadoop's map re-execution),
// so the map phase shows more successful attempts than tasks.
func TestChaosKillDuringReduce(t *testing.T) {
	c := runChaosSum(t, []string{ChaosReduce}, 0)
	assertDeathObserved(t, c)
	successMaps := 0
	for _, r := range c.res.History.Records() {
		if r.Phase == mapreduce.PhaseMap && r.Err == "" && !r.Killed {
			successMaps++
		}
	}
	// 4 map tasks; the dead worker held at least one completed map (the
	// 10ms map sleep spreads the 4 maps over both workers), so at least one
	// re-executed.
	if successMaps <= 4 {
		t.Errorf("successful map attempts = %d, want > 4 (done-map regression re-runs the dead worker's maps)", successMaps)
	}
}

// TestChaosKillDuringFetch: worker 1 dies just before issuing a peer
// shuffle fetch — the fetching side of the shuffle goes down mid-transfer.
func TestChaosKillDuringFetch(t *testing.T) {
	c := runChaosSum(t, []string{"", ChaosFetch}, 1)
	assertDeathObserved(t, c)
}

// TestChaosKillWhileServingFetch: worker 0 dies on receiving a peer's
// fetch — the serving side of the shuffle goes down, taking its map outputs
// along. The fetching worker's report carries the death evidence
// (FetchFailedWorker), so the master acts immediately instead of waiting
// out the heartbeat timeout, requeues the reduce as killed, and re-executes
// the lost maps.
func TestChaosKillWhileServingFetch(t *testing.T) {
	c := runChaosSum(t, []string{ChaosServe}, 0)
	assertDeathObserved(t, c)
	killedReduces := 0
	for _, r := range c.res.History.Records() {
		if r.Phase == mapreduce.PhaseReduce && r.Killed {
			killedReduces++
		}
	}
	if killedReduces < 1 {
		t.Error("no killed reduce attempt recorded (fetch-failure path should requeue the fetching reduce)")
	}
}

// TestChaosNthEvent: the "event:n" form arms the kill on the nth
// occurrence — worker 0 completes its first map and dies at its second.
// Worker 1's maps wait for worker 0 to die: it holds one map at a time, so
// worker 0 leases at least two of the four, whatever the scheduling.
func TestChaosNthEvent(t *testing.T) {
	c := runChaos(t, []string{ChaosMap + ":2"}, 0, true)
	assertDeathObserved(t, c)
	// The worker completed a map before dying, so that map's output was
	// lost and re-executed: more successful map attempts than map tasks.
	successMaps := 0
	for _, r := range c.res.History.Records() {
		if r.Phase == mapreduce.PhaseMap && r.Err == "" && !r.Killed {
			successMaps++
		}
	}
	if successMaps <= 4 {
		t.Errorf("successful map attempts = %d, want > 4 (first map's output died with the worker)", successMaps)
	}
}
