package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrskyline/internal/cluster"
	"mrskyline/internal/obs"
)

func TestNewValidation(t *testing.T) {
	if _, err := cluster.New(nil); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := cluster.New([]cluster.Node{{Name: "", Slots: 1}}); err == nil {
		t.Error("empty node name accepted")
	}
	if _, err := cluster.New([]cluster.Node{{Name: "a", Slots: 0}}); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := cluster.New([]cluster.Node{{Name: "a", Slots: 1}, {Name: "a", Slots: 1}}); err == nil {
		t.Error("duplicate node accepted")
	}
}

func TestUniform(t *testing.T) {
	c, err := cluster.Uniform(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes(); len(got) != 3 || got[0] != "node0" || got[2] != "node2" {
		t.Errorf("Nodes = %v", got)
	}
	if c.TotalSlots() != 6 {
		t.Errorf("TotalSlots = %d", c.TotalSlots())
	}
}

func TestRunAllTasks(t *testing.T) {
	c, _ := cluster.Uniform(4, 2)
	var ran int64
	tasks := make([]cluster.Task, 50)
	for i := range tasks {
		tasks[i] = cluster.Task{
			Name: fmt.Sprintf("t%d", i),
			Run: func(node string, _ int) error {
				atomic.AddInt64(&ran, 1)
				return nil
			},
		}
	}
	var stats cluster.Stats
	if err := c.Run(tasks, 1, &stats); err != nil {
		t.Fatal(err)
	}
	if ran != 50 {
		t.Errorf("ran %d tasks, want 50", ran)
	}
	if stats.TasksRun != 50 || stats.Retries != 0 {
		t.Errorf("stats = %+v", stats)
	}
	total := int64(0)
	for _, n := range stats.PerNode {
		total += n
	}
	if total != 50 {
		t.Errorf("per-node totals = %v", stats.PerNode)
	}
}

func TestSlotLimitRespected(t *testing.T) {
	c, _ := cluster.Uniform(2, 3) // 6 slots total
	var cur, peak int64
	var mu sync.Mutex
	tasks := make([]cluster.Task, 40)
	for i := range tasks {
		tasks[i] = cluster.Task{
			Name: fmt.Sprintf("t%d", i),
			Run: func(node string, _ int) error {
				mu.Lock()
				cur++
				if cur > peak {
					peak = cur
				}
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				cur--
				mu.Unlock()
				return nil
			},
		}
	}
	if err := c.Run(tasks, 1, nil); err != nil {
		t.Fatal(err)
	}
	if peak > 6 {
		t.Errorf("peak concurrency %d exceeds 6 slots", peak)
	}
	if peak < 2 {
		t.Errorf("peak concurrency %d shows no parallelism", peak)
	}
}

func TestRetryOnDifferentNode(t *testing.T) {
	c, _ := cluster.Uniform(3, 1)
	var mu sync.Mutex
	var nodesTried []string
	task := cluster.Task{
		Name: "flaky",
		Run: func(node string, _ int) error {
			mu.Lock()
			nodesTried = append(nodesTried, node)
			n := len(nodesTried)
			mu.Unlock()
			if n < 3 {
				return errors.New("simulated crash")
			}
			return nil
		},
	}
	var stats cluster.Stats
	if err := c.Run([]cluster.Task{task}, 5, &stats); err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	if len(nodesTried) != 3 {
		t.Fatalf("attempts = %v", nodesTried)
	}
	if nodesTried[0] == nodesTried[1] || nodesTried[1] == nodesTried[2] || nodesTried[0] == nodesTried[2] {
		t.Errorf("retries reused a blamed node: %v", nodesTried)
	}
	if stats.Retries != 2 {
		t.Errorf("Retries = %d, want 2", stats.Retries)
	}
}

func TestRetryExhaustionFailsJob(t *testing.T) {
	c, _ := cluster.Uniform(2, 1)
	boom := errors.New("boom")
	task := cluster.Task{Name: "doomed", Run: func(string, int) error { return boom }}
	err := c.Run([]cluster.Task{task}, 3, nil)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestAvoidSetRelaxesOnSingleNode(t *testing.T) {
	// With one node, a retry has nowhere else to go; the scheduler must
	// relax the avoid set rather than deadlock.
	c, _ := cluster.Uniform(1, 1)
	attempts := 0
	task := cluster.Task{
		Name: "stubborn",
		Run: func(node string, _ int) error {
			attempts++
			if attempts < 3 {
				return errors.New("again")
			}
			return nil
		},
	}
	done := make(chan error, 1)
	go func() { done <- c.Run([]cluster.Task{task}, 5, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scheduler deadlocked on single-node retry")
	}
}

func TestFailureAbortsQueuedTasks(t *testing.T) {
	// After a task exhausts retries, queued tasks must not keep the job
	// alive forever; Run returns the first error.
	c, _ := cluster.Uniform(1, 1)
	block := make(chan struct{})
	var started int64
	tasks := []cluster.Task{
		{Name: "fail", Run: func(string, int) error { return errors.New("dead") }},
	}
	for i := 0; i < 20; i++ {
		tasks = append(tasks, cluster.Task{Name: fmt.Sprintf("later%d", i), Run: func(string, int) error {
			atomic.AddInt64(&started, 1)
			<-block
			return nil
		}})
	}
	done := make(chan error, 1)
	go func() { done <- c.Run(tasks, 1, nil) }()
	// Unblock any tasks that did start before the failure propagated.
	time.AfterFunc(100*time.Millisecond, func() { close(block) })
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run returned nil despite failed task")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after failure")
	}
}

func TestConcurrentJobsShareCluster(t *testing.T) {
	c, _ := cluster.Uniform(2, 2)
	var wg sync.WaitGroup
	for j := 0; j < 4; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tasks := make([]cluster.Task, 10)
			for i := range tasks {
				tasks[i] = cluster.Task{Name: "t", Run: func(string, int) error {
					time.Sleep(100 * time.Microsecond)
					return nil
				}}
			}
			if err := c.Run(tasks, 1, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func TestRunNoTasks(t *testing.T) {
	c, _ := cluster.Uniform(1, 1)
	if err := c.Run(nil, 1, nil); err != nil {
		t.Errorf("Run(nil) = %v", err)
	}
}

func TestPaperCluster(t *testing.T) {
	c, err := cluster.Paper(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes()) != 13 || c.TotalSlots() != 26 {
		t.Fatalf("paper cluster shape: %d nodes, %d slots", len(c.Nodes()), c.TotalSlots())
	}
	speeds := c.SlotSpeeds()
	if len(speeds) != 26 {
		t.Fatalf("slot speeds = %d", len(speeds))
	}
	slow := 0
	for _, s := range speeds {
		if s < 1 {
			slow++
		}
	}
	if slow != 2 {
		t.Errorf("%d slow slots, want 2 (one heterogeneous node × 2 slots)", slow)
	}
}

func TestNewRejectsNegativeSpeed(t *testing.T) {
	if _, err := cluster.New([]cluster.Node{{Name: "a", Slots: 1, Speed: -1}}); err == nil {
		t.Error("negative speed accepted")
	}
}

func TestSlotSpeedsDefault(t *testing.T) {
	c, _ := cluster.Uniform(2, 3)
	for _, s := range c.SlotSpeeds() {
		if s != 1 {
			t.Fatalf("default speed = %v", s)
		}
	}
}

// TestPerNodeAttemptAccounting pins the attempt-accounting invariant: the
// PerNode counts must sum exactly to TasksRun, with every started attempt —
// first tries, error retries and panic retries alike — counted exactly once
// on the node that ran it.
func TestPerNodeAttemptAccounting(t *testing.T) {
	c, err := cluster.New([]cluster.Node{
		{Name: "n0", Slots: 1},
		{Name: "n1", Slots: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	tasks := []cluster.Task{
		{Name: "clean", Run: func(string, int) error { calls.Add(1); return nil }},
		{Name: "error-retry", Run: func() func(string, int) error {
			var n atomic.Int64
			return func(string, int) error {
				calls.Add(1)
				if n.Add(1) == 1 {
					return errors.New("first attempt fails")
				}
				return nil
			}
		}()},
		{Name: "panic-retry", Run: func() func(string, int) error {
			var n atomic.Int64
			return func(string, int) error {
				calls.Add(1)
				if n.Add(1) == 1 {
					panic("first attempt panics")
				}
				return nil
			}
		}()},
	}
	var stats cluster.Stats
	if err := c.Run(tasks, 3, &stats); err != nil {
		t.Fatalf("job failed: %v", err)
	}
	// 3 tasks + 2 retries = 5 started attempts.
	if stats.TasksRun != 5 {
		t.Errorf("TasksRun = %d, want 5", stats.TasksRun)
	}
	if got := calls.Load(); got != 5 {
		t.Errorf("Run invocations = %d, want 5", got)
	}
	var perNodeSum int64
	for _, n := range stats.PerNode {
		perNodeSum += n
	}
	if perNodeSum != stats.TasksRun {
		t.Errorf("PerNode sums to %d but TasksRun = %d; attempts double- or under-counted", perNodeSum, stats.TasksRun)
	}
	if stats.Retries != 2 {
		t.Errorf("Retries = %d, want 2", stats.Retries)
	}
}

// TestTaskPanicRetries: a panicking Task.Run must release its slot and
// count as a failed attempt (this used to crash the whole process and leak
// the slot), so the task retries elsewhere and the job completes.
func TestTaskPanicRetries(t *testing.T) {
	c, err := cluster.Uniform(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var attempts atomic.Int64
	tasks := []cluster.Task{{
		Name: "panicky",
		Run: func(node string, _ int) error {
			if attempts.Add(1) == 1 {
				panic("boom")
			}
			return nil
		},
	}}
	if err := c.Run(tasks, 2, nil); err != nil {
		t.Fatalf("panicking first attempt was not retried: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
	// The slot leaked if a follow-up job cannot run on the same cluster.
	if err := c.Run([]cluster.Task{
		{Name: "a", Run: func(string, int) error { return nil }},
		{Name: "b", Run: func(string, int) error { return nil }},
	}, 1, nil); err != nil {
		t.Fatalf("cluster unusable after panic recovery: %v", err)
	}

	// A panic on every attempt must exhaust the budget with a clean error.
	always := []cluster.Task{{
		Name: "cursed",
		Run:  func(string, int) error { panic("always") },
	}}
	err = c.Run(always, 2, nil)
	if err == nil {
		t.Fatal("always-panicking task reported success")
	}
	if !strings.Contains(err.Error(), "failed after 2 attempts") {
		t.Errorf("error %q does not report the attempt budget", err)
	}
}

// TestSetDown: dead nodes receive no placements; repairs restore them;
// unknown names error.
func TestSetDown(t *testing.T) {
	c, err := cluster.Uniform(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetDown("nope", true); err == nil {
		t.Error("SetDown accepted an unknown node")
	}
	if err := c.SetDown("node1", true); err != nil {
		t.Fatal(err)
	}
	if !c.IsDown("node1") {
		t.Error("node1 not reported down")
	}
	var mu sync.Mutex
	placed := map[string]int{}
	tasks := make([]cluster.Task, 6)
	for i := range tasks {
		tasks[i] = cluster.Task{Name: fmt.Sprintf("t%d", i), Run: func(node string, _ int) error {
			mu.Lock()
			placed[node]++
			mu.Unlock()
			return nil
		}}
	}
	if err := c.Run(tasks, 1, nil); err != nil {
		t.Fatal(err)
	}
	if placed["node1"] != 0 {
		t.Errorf("dead node1 received %d placements", placed["node1"])
	}
	if err := c.SetDown("node1", false); err != nil {
		t.Fatal(err)
	}
	if c.IsDown("node1") {
		t.Error("node1 still down after repair")
	}

	// With every node down, a job must fail fast instead of deadlocking.
	for _, n := range c.Nodes() {
		if err := c.SetDown(n, true); err != nil {
			t.Fatal(err)
		}
	}
	err = c.Run([]cluster.Task{{Name: "stuck", Run: func(string, int) error { return nil }}}, 1, nil)
	if err == nil {
		t.Fatal("job on an all-dead cluster reported success")
	}
	if !strings.Contains(err.Error(), "no alive nodes") {
		t.Errorf("error %q does not report dead cluster", err)
	}
}

// TestSlotOccupancySpans: with a tracer attached, every attempt records a
// span on its slot's track, spans on one track never overlap, and failed
// attempts carry an error state arg.
func TestSlotOccupancySpans(t *testing.T) {
	c, _ := cluster.Uniform(2, 2)
	tr := obs.New()
	c.SetTrace(tr)
	var failedOnce atomic.Bool
	tasks := make([]cluster.Task, 9)
	for i := range tasks {
		tasks[i] = cluster.Task{Name: fmt.Sprintf("t%d", i), Run: func(string, int) error {
			time.Sleep(200 * time.Microsecond)
			return nil
		}}
	}
	tasks[8].Run = func(string, int) error {
		if failedOnce.CompareAndSwap(false, true) {
			return errors.New("first attempt fails")
		}
		return nil
	}
	if err := c.Run(tasks, 2, nil); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) != 10 { // 9 tasks + 1 retry
		t.Fatalf("got %d spans, want 10", len(spans))
	}
	states := map[string]int{}
	lastEnd := map[string]time.Duration{}
	for _, s := range spans {
		if s.Cat != obs.CatSlot {
			t.Fatalf("span cat = %q", s.Cat)
		}
		var nodeIdx, slot int
		if n, _ := fmt.Sscanf(s.Track, "node%d/s%d", &nodeIdx, &slot); n != 2 {
			t.Fatalf("track %q is not a slot track", s.Track)
		}
		if s.Start < lastEnd[s.Track] {
			t.Fatalf("span %q on %s starts at %v before previous span ended at %v",
				s.Name, s.Track, s.Start, lastEnd[s.Track])
		}
		lastEnd[s.Track] = s.End
		for _, a := range s.Args {
			if a.Key == "state" {
				states[a.Value]++
			}
		}
	}
	if states["error"] != 1 || states["ok"] != 9 {
		t.Fatalf("state args = %v, want 1 error + 9 ok", states)
	}
}

func TestRunContextCancellation(t *testing.T) {
	c, _ := cluster.Uniform(1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var started int64
	tasks := make([]cluster.Task, 8)
	for i := range tasks {
		tasks[i] = cluster.Task{
			Name: fmt.Sprintf("t%d", i),
			Run: func(string, int) error {
				if atomic.AddInt64(&started, 1) == 1 {
					close(release)
					<-ctx.Done() // hold the only slot until cancelled
				}
				return nil
			},
		}
	}
	go func() {
		<-release
		cancel()
	}()
	err := c.RunContext(ctx, tasks, 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	// Cancellation aborts placement: with a single slot held until the
	// cancel, most tasks must never have started.
	if n := atomic.LoadInt64(&started); n == 8 {
		t.Errorf("all %d tasks started despite cancellation", n)
	}
}

func TestBusySlots(t *testing.T) {
	c, _ := cluster.Uniform(2, 2)
	if got := c.BusySlots(); got != 0 {
		t.Fatalf("idle BusySlots = %d", got)
	}
	inTask := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- c.Run([]cluster.Task{{Name: "hold", Run: func(string, int) error {
			close(inTask)
			<-release
			return nil
		}}}, 1, nil)
	}()
	<-inTask
	if got := c.BusySlots(); got != 1 {
		t.Errorf("BusySlots during task = %d, want 1", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := c.BusySlots(); got != 0 {
		t.Errorf("BusySlots after run = %d, want 0", got)
	}
}
