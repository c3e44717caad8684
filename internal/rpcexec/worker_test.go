package rpcexec

import (
	"context"
	"net/rpc"
	"strings"
	"sync"
	"testing"
	"time"

	"mrskyline/internal/frame"
	"mrskyline/internal/mapreduce"
)

// Worker coverage strategy: ProcExecutor's real workers live in child
// processes, outside `go test -cover`'s view. These tests run runWorker in
// goroutines against a real master instead — the worker body cannot tell
// the difference (everything crosses loopback TCP either way), and the
// coverage profile sees every line it executes.

// startInprocWorkers runs n workers as goroutines and returns a cleanup
// that drains them after the master begins shutdown.
func startInprocWorkers(t *testing.T, m *master, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runWorker(m.addr)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.registeredWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatal("in-process workers did not register")
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Cleanup(func() {
		m.beginShutdown()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("in-process workers did not exit after shutdown")
			return
		}
		m.stop()
		for i, err := range errs {
			if err != nil {
				t.Errorf("worker %d exited with error: %v", i, err)
			}
		}
	})
}

// inprocExec is a ProcExecutor over n in-process-hosted workers: the real
// master, engine and worker bodies, minus the process boundary.
func inprocExec(t *testing.T, n int) *ProcExecutor {
	t.Helper()
	cfg := inprocConfig(n)
	m, err := newMaster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	startInprocWorkers(t, m, n)
	return &ProcExecutor{Engine: m.eng, cfg: cfg, m: m}
}

func inprocConfig(workers int) Config {
	cfg, err := (&Config{
		Workers:           workers,
		LeaseTimeout:      20 * time.Second,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		LeasePoll:         2 * time.Millisecond,
	}).withDefaults()
	if err != nil {
		panic(err)
	}
	return cfg
}

// TestInprocessWorkersEndToEnd drives the full worker body — register,
// heartbeat, lease loop, map execution, local and peer shuffle fetches,
// reduce execution, job-drop eviction, clean exit — in-process.
func TestInprocessWorkersEndToEnd(t *testing.T) {
	pe := inprocExec(t, 2)

	const keys, records, mappers, reducers = 6, 90, 4, 3
	// The 10ms task sleeps spread maps over both workers, so reduces mix
	// local-store reads with peer Worker.Fetch calls.
	res, err := pe.RunContext(context.Background(), sumJob("inproc", keys, records, mappers, reducers, 10, 10))
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if want := sumJobExpected(keys, records, reducers); !recordsEqual(res.Output, want) {
		t.Fatalf("output mismatch:\n got %s\nwant %s", formatRecords(res.Output), formatRecords(want))
	}
	checkAttemptInvariants(t, res)

	// A second job covers the cached-peer-connection path and the job-info
	// cache across jobs; the pause in between lets the finished first job's
	// drop notice ride a heartbeat and exercise segment eviction.
	time.Sleep(3 * pe.cfg.HeartbeatInterval)
	res, err = pe.RunContext(context.Background(), sumJob("inproc-2", 4, 64, 3, 2, 5, 5))
	if err != nil {
		t.Fatalf("second RunContext: %v", err)
	}
	if want := sumJobExpected(4, 64, 2); !recordsEqual(res.Output, want) {
		t.Fatalf("second output mismatch:\n got %s\nwant %s", formatRecords(res.Output), formatRecords(want))
	}
}

// TestFetchSegmentLocalErrors covers the local-store failure paths of
// fetchSegment directly.
func TestFetchSegmentLocalErrors(t *testing.T) {
	w := &worker{id: 3, store: make(map[storeKey][][]byte), peers: map[string]*rpc.Client{}, chaos: &chaosSpec{}}
	lease := &LeaseReply{JobID: 9, TaskID: 0}

	// Missing segment.
	_, _, _, err := w.fetchSegment(lease, MapSource{MapTask: 0, WorkerID: 3})
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing local segment: err = %v", err)
	}

	// Stored but corrupt (checksum mismatch).
	seg := frame.AppendRecord(nil, []byte("k"), []byte("v"))
	w.store[storeKey{job: 9, task: 0}] = [][]byte{seg}
	_, _, _, err = w.fetchSegment(lease, MapSource{MapTask: 0, WorkerID: 3, Checksum: mapreduce.SegmentChecksum(seg) + 1})
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("corrupt local segment: err = %v", err)
	}

	// Intact.
	got, wire, refetch, err := w.fetchSegment(lease, MapSource{MapTask: 0, WorkerID: 3, Checksum: mapreduce.SegmentChecksum(seg)})
	if err != nil || wire != 0 || refetch != 0 || string(got) != string(seg) {
		t.Errorf("local fetch = %x, wire %d, refetch %d, err %v", got, wire, refetch, err)
	}
}

// TestCallPeerDialError covers the redial path's terminal failure.
func TestCallPeerDialError(t *testing.T) {
	w := &worker{peers: map[string]*rpc.Client{}}
	err := w.callPeer("127.0.0.1:1", &FetchArgs{}, &FetchReply{})
	if err == nil {
		t.Error("callPeer to closed port: want error")
	}
}

// TestWorkerFetchServiceMissing covers Fetch's error reply for segments the
// worker does not hold.
func TestWorkerFetchServiceMissing(t *testing.T) {
	w := &worker{id: 1, store: make(map[storeKey][][]byte), chaos: &chaosSpec{}}
	svc := &workerFetchService{w: w}
	var reply FetchReply
	if err := svc.Fetch(&FetchArgs{JobID: 1, MapTask: 0, Reduce: 0}, &reply); err == nil {
		t.Error("fetch of unknown segment: want error")
	}
	w.store[storeKey{job: 1, task: 0}] = [][]byte{[]byte("seg")}
	if err := svc.Fetch(&FetchArgs{JobID: 1, MapTask: 0, Reduce: 5}, &reply); err == nil {
		t.Error("fetch with out-of-range reduce: want error")
	}
	if err := svc.Fetch(&FetchArgs{JobID: 1, MapTask: 0, Reduce: 0}, &reply); err != nil || string(reply.Seg) != "seg" {
		t.Errorf("fetch = %q, %v", reply.Seg, err)
	}
}

// TestParseChaos covers the chaos-spec grammar.
func TestParseChaos(t *testing.T) {
	for _, tc := range []struct {
		in    string
		event string
		nth   int32
		ok    bool
	}{
		{"", "", 0, true},
		{"map", ChaosMap, 1, true},
		{"reduce:3", ChaosReduce, 3, true},
		{"fetch", ChaosFetch, 1, true},
		{"serve:2", ChaosServe, 2, true},
		{"explode", "", 0, false},
		{"map:0", "", 0, false},
		{"map:x", "", 0, false},
	} {
		spec, err := parseChaos(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("parseChaos(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if err == nil && tc.in != "" && (spec.event != tc.event || spec.nth != tc.nth) {
			t.Errorf("parseChaos(%q) = {%s %d}, want {%s %d}", tc.in, spec.event, spec.nth, tc.event, tc.nth)
		}
	}

	// Non-matching events never arm the kill; the zero spec is inert.
	spec, _ := parseChaos("map:100")
	spec.maybeKill(ChaosReduce)
	spec.maybeKill(ChaosMap) // hit 1 of 100: still alive
	if spec.hits.Load() != 1 {
		t.Errorf("hits = %d, want 1 (only matching events count)", spec.hits.Load())
	}
	(&chaosSpec{}).maybeKill(ChaosMap)
}
