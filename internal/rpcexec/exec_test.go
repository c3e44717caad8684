package rpcexec

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"mrskyline/internal/baseline"
	"mrskyline/internal/cluster"
	"mrskyline/internal/core"
	"mrskyline/internal/datagen"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/skyline"
	"mrskyline/internal/tuple"
)

// TestSumJobEndToEnd runs the kind-registered sum job on real worker
// processes and checks its exact output and counters.
func TestSumJobEndToEnd(t *testing.T) {
	pe := newProcExec(t, Config{Workers: 2})
	const keys, records, mappers, reducers = 7, 120, 4, 3
	res, err := pe.RunContext(context.Background(), sumJob("sum-e2e", keys, records, mappers, reducers, 0, 0))
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	want := sumJobExpected(keys, records, reducers)
	if !recordsEqual(res.Output, want) {
		t.Fatalf("output mismatch:\n got %s\nwant %s", formatRecords(res.Output), formatRecords(want))
	}
	if got := res.Counters.Get(mapreduce.CounterMapInputRecords); got != int64(records) {
		t.Errorf("%s = %d, want %d", mapreduce.CounterMapInputRecords, got, records)
	}
	if res.Counters.Get(mapreduce.CounterShuffleBytes) == 0 {
		t.Error("CounterShuffleBytes = 0, want > 0")
	}
	checkAttemptInvariants(t, res)
	succ := 0
	for _, r := range res.History.Records() {
		if r.Err == "" && !r.Killed {
			succ++
		}
	}
	if succ != mappers+reducers {
		t.Errorf("history has %d successful attempts, want %d (fault-free run)", succ, mappers+reducers)
	}
}

// TestRunContextRejectsUnshippableJobs covers the validation surface:
// kindless jobs, unregistered kinds, and jobs missing a mapper or reducer.
func TestRunContextRejectsUnshippableJobs(t *testing.T) {
	pe := newProcExec(t, Config{Workers: 1})
	ctx := context.Background()

	job := sumJob("no-kind", 2, 10, 1, 1, 0, 0)
	job.Kind = ""
	if _, err := pe.RunContext(ctx, job); err == nil || !strings.Contains(err.Error(), "no Kind") {
		t.Errorf("kindless job: err = %v, want 'no Kind'", err)
	}

	job = sumJob("bad-kind", 2, 10, 1, 1, 0, 0)
	job.Kind = "rpcexec-test/never-registered"
	if _, err := pe.RunContext(ctx, job); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Errorf("unregistered kind: err = %v, want 'not registered'", err)
	}

	job = sumJob("no-reducer", 2, 10, 1, 1, 0, 0)
	job.NewReducer = nil
	if _, err := pe.RunContext(ctx, job); err == nil || !strings.Contains(err.Error(), "missing a mapper or reducer") {
		t.Errorf("reducerless job: err = %v, want 'missing a mapper or reducer'", err)
	}

	job = sumJob("no-input", 2, 10, 1, 1, 0, 0)
	job.Input = nil
	if _, err := pe.RunContext(ctx, job); err == nil || !strings.Contains(err.Error(), "no input") {
		t.Errorf("inputless job: err = %v, want 'no input'", err)
	}
}

// TestRunContextCancel cancels a job mid-flight and checks the executor
// survives to run the next one: workers are not respawned or torn down, the
// abandoned attempts are fenced off.
func TestRunContextCancel(t *testing.T) {
	pe := newProcExec(t, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Long task sleeps hold the job open far past the cancellation.
		_, err := pe.RunContext(ctx, sumJob("cancelled", 4, 40, 4, 2, 800, 800))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let leases go out
	cancel()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Fatalf("cancelled job error = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled job did not return")
	}

	// The executor still works: the abandoned attempts' late reports are
	// dropped by fencing, not mistaken for this job's tasks.
	res, err := pe.RunContext(context.Background(), sumJob("after-cancel", 3, 60, 2, 2, 0, 0))
	if err != nil {
		t.Fatalf("job after cancel: %v", err)
	}
	if want := sumJobExpected(3, 60, 2); !recordsEqual(res.Output, want) {
		t.Fatalf("output after cancel mismatch:\n got %s\nwant %s", formatRecords(res.Output), formatRecords(want))
	}
}

// TestCloseIdempotent double-closes and checks worker processes are gone.
func TestCloseIdempotent(t *testing.T) {
	pe, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pids := pe.WorkerPIDs()
	if len(pids) != 2 {
		t.Fatalf("WorkerPIDs = %v, want 2 entries", pids)
	}
	if err := pe.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := pe.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for _, pid := range pids {
		if processAlive(pid) {
			t.Errorf("worker pid %d still alive after Close", pid)
		}
	}
}

// TestConfigValidation covers Config.withDefaults rejections.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Workers: 0}); err == nil {
		t.Error("New with 0 workers: want error")
	}
	if _, err := New(Config{Workers: 1, Chaos: []string{"map", "map"}}); err == nil {
		t.Error("New with more chaos specs than workers: want error")
	}
	if _, err := New(Config{Workers: 1, BinPath: "/nonexistent/worker-binary"}); err == nil {
		t.Error("New with bogus BinPath: want error")
	}
}

// ---------------------------------------------------------------------------
// Differential property test: the determinism contract of DESIGN.md §12.
// Across seeds, dimensions and algorithms, the process backend's skyline is
// byte-identical to the in-process engine's.

func TestDifferentialProcessVsInprocess(t *testing.T) {
	const workers = 3
	seeds := 30
	if testing.Short() {
		seeds = 6
	}

	pe := newProcExec(t, Config{Workers: workers})
	cl, err := cluster.Uniform(workers, 1)
	if err != nil {
		t.Fatalf("cluster.Uniform: %v", err)
	}
	eng := mapreduce.NewEngine(cl)

	type algo struct {
		name string
		run  func(exec mapreduce.Executor, data tuple.List) (tuple.List, error)
	}
	coreCfg := func(exec mapreduce.Executor) core.Config {
		// Pin task counts to the worker count so both backends use the same
		// task layout (the in-process cluster is workers×1, so its defaults
		// agree — pinning makes the equivalence explicit).
		return core.Config{Engine: exec, NumMappers: workers, NumReducers: workers}
	}
	algos := []algo{
		{"MR-GPSRS", func(exec mapreduce.Executor, data tuple.List) (tuple.List, error) {
			sky, _, err := core.GPSRS(coreCfg(exec), data)
			return sky, err
		}},
		{"MR-GPMRS", func(exec mapreduce.Executor, data tuple.List) (tuple.List, error) {
			sky, _, err := core.GPMRS(coreCfg(exec), data)
			return sky, err
		}},
		{"MR-BNL", func(exec mapreduce.Executor, data tuple.List) (tuple.List, error) {
			sky, _, err := baseline.MRBNL(baseline.Config{Engine: exec, NumMappers: workers}, data)
			return sky, err
		}},
	}
	dists := []datagen.Distribution{datagen.AntiCorrelated, datagen.Independent, datagen.Correlated}

	for seed := 1; seed <= seeds; seed++ {
		data := datagen.Generate(dists[seed%len(dists)], 250+17*seed, 2+seed%3, int64(seed))
		for _, a := range algos {
			skyIn, err := a.run(eng, data)
			if err != nil {
				t.Fatalf("seed %d %s in-process: %v", seed, a.name, err)
			}
			skyProc, err := a.run(pe, data)
			if err != nil {
				t.Fatalf("seed %d %s process: %v", seed, a.name, err)
			}
			if !bytes.Equal(tuple.EncodeList(skyIn), tuple.EncodeList(skyProc)) {
				t.Errorf("seed %d %s: backends diverge: in-process %d tuples, process %d tuples",
					seed, a.name, len(skyIn), len(skyProc))
			}
		}
	}
}

// TestGridAlgorithmsOverProcessWorkers: the grid algorithms' reducers merge
// the mappers' score-ordered runs and fail the task on a run out of order,
// so the order has to survive the transport. One seed of core's multiset
// differential runs here on real worker processes — over the RPC wire, and
// again with every segment spilled to run files and merged — under every
// in-task kernel, against skyline.Naive.
func TestGridAlgorithmsOverProcessWorkers(t *testing.T) {
	const workers = 3
	algos := map[string]func(core.Config, tuple.List) (tuple.List, *core.Stats, error){
		"MR-GPSRS": core.GPSRS, "MR-GPMRS": core.GPMRS, "Hybrid": core.Hybrid,
	}
	for name, cfg := range map[string]Config{
		"wire":    {Workers: workers},
		"spilled": {Workers: workers, SpillBudget: 1024, SpillDir: t.TempDir()},
	} {
		pe := newProcExec(t, cfg)
		for _, d := range []int{2, 5} {
			data := datagen.Generate(datagen.AntiCorrelated, 1200, d, 11)
			want := skyline.Naive(data)
			for _, kernel := range []skyline.Kernel{skyline.KernelBNL, skyline.KernelSFS, skyline.KernelDC} {
				for algo, run := range algos {
					got, _, err := run(core.Config{Engine: pe, Kernel: kernel, PPD: 2, NumMappers: 5, NumReducers: workers}, data)
					if err != nil {
						t.Fatalf("%s d=%d %s/%v: %v", name, d, algo, kernel, err)
					}
					if !tuple.EqualAsMultiset(got, want) {
						t.Errorf("%s d=%d %s/%v: got %d tuples, naive has %d", name, d, algo, kernel, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestWallTracerPlumbed checks the executor surfaces its configured tracer
// and the master feeds rpc telemetry into it.
func TestWallTracerPlumbed(t *testing.T) {
	tr := obs.New()
	pe := newProcExec(t, Config{Workers: 2, Trace: tr})
	if pe.WallTracer() != tr {
		t.Fatal("WallTracer did not return the configured tracer")
	}
	if pe.TotalSlots() != 2 || pe.NumNodes() != 2 {
		t.Fatalf("TotalSlots/NumNodes = %d/%d, want 2/2", pe.TotalSlots(), pe.NumNodes())
	}
	if _, err := pe.RunContext(context.Background(), sumJob("traced", 5, 80, 3, 2, 0, 0)); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	snap := tr.Metrics().Snapshot()
	leases, wire := int64(0), int64(-1)
	for _, c := range snap.Counters {
		switch c.Name {
		case "rpc.lease.granted":
			leases = c.Value
		case "rpc.shuffle.wire.bytes":
			wire = c.Value
		}
	}
	if leases != 5 {
		t.Errorf("rpc.lease.granted = %d, want 5 (3 maps + 2 reduces)", leases)
	}
	if wire < 0 {
		t.Error("rpc.shuffle.wire.bytes counter missing")
	}
}
