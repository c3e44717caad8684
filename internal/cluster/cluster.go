// Package cluster simulates the compute side of a MapReduce deployment: a
// set of named nodes, each with a fixed number of task slots, onto which
// map and reduce tasks are scheduled with bounded retry — the role Hadoop's
// JobTracker/TaskTrackers play in the paper's 13-machine cluster. Data
// locality is not modelled: inputs live in memory, and no simulated cost
// depends on where a task runs.
//
// Tasks run as goroutines, so the wall-clock behaviour of the simulated
// cluster mirrors the parallelism structure of the real one: a job with a
// single reduce task serializes its merge work no matter how many nodes
// exist, which is exactly the bottleneck MR-GPMRS is designed to remove.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mrskyline/internal/obs"
)

// Node describes one simulated machine.
type Node struct {
	// Name identifies the node; it must be unique within the cluster.
	Name string
	// Slots is the number of tasks the node can run concurrently.
	Slots int
	// Speed is the node's relative compute speed used by simulated-time
	// accounting (1.0 = reference; the paper's cluster mixes 2.8 GHz and
	// 2.13 GHz machines). Zero means 1.0.
	Speed float64
}

// Task is one schedulable unit of work.
type Task struct {
	// Name is used in error messages.
	Name string
	// Run executes the task on the given node and slot (0-based within the
	// node; SlotTrack(node, slot) names its trace track). A non-nil error
	// triggers a retry on a different node (when possible) up to the
	// attempt budget.
	Run func(node string, slot int) error
}

// Stats aggregates scheduling telemetry across a Run call.
type Stats struct {
	// TasksRun counts task attempts that were started.
	TasksRun int64
	// Retries counts attempts after a failure.
	Retries int64
	// PerNode counts attempts per node name.
	PerNode map[string]int64
}

// Cluster is a fixed set of nodes with task slots. It is safe for
// concurrent use; multiple jobs may share one cluster.
type Cluster struct {
	nodes []Node

	mu   sync.Mutex
	cond *sync.Cond
	free map[string]int
	busy map[string][]bool
	down map[string]bool

	trace *obs.Tracer
}

// New creates a cluster. Every node needs a unique name and at least one
// slot.
func New(nodes []Node) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: at least one node required")
	}
	free := make(map[string]int, len(nodes))
	for _, n := range nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if _, dup := free[n.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		if n.Slots < 1 {
			return nil, fmt.Errorf("cluster: node %q has %d slots", n.Name, n.Slots)
		}
		if n.Speed < 0 {
			return nil, fmt.Errorf("cluster: node %q has negative speed %g", n.Name, n.Speed)
		}
		free[n.Name] = n.Slots
	}
	busy := make(map[string][]bool, len(nodes))
	for _, n := range nodes {
		busy[n.Name] = make([]bool, n.Slots)
	}
	c := &Cluster{nodes: append([]Node(nil), nodes...), free: free, busy: busy, down: make(map[string]bool)}
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

// Uniform is a convenience constructor: n nodes named node0..node{n-1} with
// the given number of slots each.
func Uniform(n, slots int) (*Cluster, error) {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{Name: fmt.Sprintf("node%d", i), Slots: slots}
	}
	return New(nodes)
}

// SetTrace attaches a tracer; every subsequent task attempt records a
// slot-occupancy span on its SlotTrack. A nil tracer (the default)
// disables recording. Call before Run; not synchronized with running
// jobs.
func (c *Cluster) SetTrace(tr *obs.Tracer) { c.trace = tr }

// SlotTrack names the trace track of one task slot, e.g. "node3/s1".
func SlotTrack(node string, slot int) string {
	return fmt.Sprintf("%s/s%d", node, slot)
}

// Nodes returns the node names in configuration order.
func (c *Cluster) Nodes() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Name
	}
	return out
}

// NodeInfo returns a copy of the node configuration (names, slots, speeds)
// in configuration order. The engine's virtual-clock driver builds its
// slot topology from this.
func (c *Cluster) NodeInfo() []Node {
	return append([]Node(nil), c.nodes...)
}

// SetDown marks a node dead (down = true) or repaired (down = false). Dead
// nodes receive no new task placements; attempts already running on them
// finish normally — the caller decides whether their results count, the way
// a JobTracker ignores a lost tracker's output. Returns an error for
// unknown nodes.
func (c *Cluster) SetDown(name string, down bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if n.Name == name {
			if down {
				c.down[name] = true
			} else {
				delete(c.down, name)
			}
			// Placement choices may have changed; wake waiting acquires so
			// they re-evaluate (a repair can unblock a starved job).
			c.cond.Broadcast()
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown node %q", name)
}

// IsDown reports whether the node is currently marked dead.
func (c *Cluster) IsDown(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down[name]
}

// TotalSlots returns the cluster-wide slot count.
func (c *Cluster) TotalSlots() int {
	total := 0
	for _, n := range c.nodes {
		total += n.Slots
	}
	return total
}

// BusySlots returns the number of slots currently occupied by running task
// attempts, across all jobs sharing the cluster. Serving front-ends expose
// it as a utilization gauge.
func (c *Cluster) BusySlots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	busy := 0
	for _, n := range c.nodes {
		busy += n.Slots - c.free[n.Name]
	}
	return busy
}

// SlotSpeeds returns one relative speed per slot (a node contributes its
// speed once per slot), for simulated-time scheduling. Unset speeds read
// as 1.0.
func (c *Cluster) SlotSpeeds() []float64 {
	var out []float64
	for _, n := range c.nodes {
		sp := n.Speed
		if sp == 0 {
			sp = 1
		}
		for i := 0; i < n.Slots; i++ {
			out = append(out, sp)
		}
	}
	return out
}

// takeSlot claims the lowest free slot index on node. Caller holds c.mu
// and has checked c.free[node] > 0.
func (c *Cluster) takeSlot(node string) int {
	for i, b := range c.busy[node] {
		if !b {
			c.busy[node][i] = true
			c.free[node]--
			return i
		}
	}
	panic("cluster: free count and busy slots out of sync")
}

// Place is the slot placement policy, shared by the blocking scheduler
// below and the engine's virtual-clock driver: it picks the node for one
// task attempt from a snapshot of slot state and blocks on nothing.
//
// The first node in configuration order with a free slot wins. Nodes in
// down never qualify, nodes in avoid (where the task already failed) only
// once avoid covers every alive node — it is then cleared rather than
// starving the task. A successful placement is counted in stats when
// non-nil. An empty node with a nil error means every usable slot is busy:
// wait for a release.
func Place(nodes []Node, free map[string]int, down, avoid map[string]bool, retry bool, stats *Stats) (node string, err error) {
	for {
		alive, usable := 0, 0
		for _, n := range nodes {
			if down[n.Name] {
				continue
			}
			alive++
			if avoid[n.Name] {
				continue
			}
			usable++
			if free[n.Name] > 0 {
				stats.Count(n.Name, retry)
				return n.Name, nil
			}
		}
		if alive == 0 {
			return "", errNoAliveNodes
		}
		if usable > 0 {
			return "", nil
		}
		clear(avoid)
	}
}

// Count records one started attempt; Place calls it, and so do the engine's
// drivers for attempts they start without asking Place. A nil Stats counts
// nothing.
func (s *Stats) Count(node string, retry bool) {
	if s == nil {
		return
	}
	s.TasksRun++
	if retry {
		s.Retries++
	}
	if s.PerNode == nil {
		s.PerNode = make(map[string]int64)
	}
	s.PerNode[node]++
}

// acquire blocks until Place finds a node, then claims the lowest free
// slot on it. Exactly one Stats record is made per started attempt, under
// c.mu, so PerNode counts stay in lockstep with TasksRun. A cancelled ctx
// aborts too, even before RunContext's watcher has seen it: a slot freed by
// the cancellation itself must not place another attempt.
func (c *Cluster) acquire(ctx context.Context, task *Task, avoid map[string]bool, retry bool, stats *Stats, aborted *bool) (string, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if *aborted || ctx.Err() != nil {
			return "", 0, errAborted
		}
		node, err := Place(c.nodes, c.free, c.down, avoid, retry, stats)
		if err != nil {
			return "", 0, err
		}
		if node != "" {
			return node, c.takeSlot(node), nil
		}
		c.cond.Wait()
	}
}

func (c *Cluster) release(node string, slot int) {
	c.mu.Lock()
	c.busy[node][slot] = false
	c.free[node]++
	c.cond.Broadcast()
	c.mu.Unlock()
}

var (
	errAborted      = errors.New("cluster: job aborted after failure")
	errNoAliveNodes = errors.New("cluster: no alive nodes")
)

// runAttempt executes one task attempt with the slot released on every exit
// path and panics converted to errors, so a panicking mapper or reducer
// flows through the same retry machinery as a returned error instead of
// leaking the slot and killing the process. With a tracer attached, the
// attempt is bracketed by a slot-occupancy span — ended (LIFO defers:
// recover, span, release) after panic recovery and before the slot frees,
// so spans on one slot track never overlap.
func (c *Cluster) runAttempt(task *Task, node string, slot int) (err error) {
	defer c.release(node, slot)
	sp := c.trace.Start(SlotTrack(node, slot), task.Name, obs.CatSlot)
	defer func() {
		state := "ok"
		if err != nil {
			state = "error"
		}
		sp.EndWith(obs.Arg{Key: "state", Value: state})
	}()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("task %q panicked on %s: %v", task.Name, node, p)
		}
	}()
	return task.Run(node, slot)
}

// Run executes all tasks, each allowed maxAttempts attempts (min 1). It
// returns the first task error once every started task has finished, or
// nil. Stats, when non-nil, receives scheduling telemetry.
func (c *Cluster) Run(tasks []Task, maxAttempts int, stats *Stats) error {
	return c.RunContext(context.Background(), tasks, maxAttempts, stats)
}

// RunContext is Run with cancellation: when ctx is cancelled (or its
// deadline passes) the scheduler stops placing new attempts and returns
// ctx's error once every already-running attempt has finished. Running
// task bodies are never preempted — exactly how a JobTracker kills a job:
// pending tasks are dropped, in-flight attempts drain.
func (c *Cluster) RunContext(ctx context.Context, tasks []Task, maxAttempts int, stats *Stats) error {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		aborted  bool
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			c.mu.Lock()
			aborted = true
			c.cond.Broadcast()
			c.mu.Unlock()
		})
	}
	// A watcher turns ctx cancellation into a job abort: waiting acquires
	// observe the aborted flag on the broadcast and unwind. It has exited
	// before firstErr is read, so a cancellation racing the last task's
	// finish is either reported or not — never half-written.
	var stop, watcher chan struct{}
	if ctx.Done() != nil {
		stop, watcher = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(watcher)
			select {
			case <-ctx.Done():
				fail(ctx.Err())
			case <-stop:
			}
		}()
	}
	for i := range tasks {
		task := tasks[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			avoid := make(map[string]bool)
			var lastErr error
			for attempt := 1; attempt <= maxAttempts; attempt++ {
				node, slot, err := c.acquire(ctx, &task, avoid, attempt > 1, stats, &aborted)
				if err == errAborted {
					if ctxErr := ctx.Err(); ctxErr != nil {
						fail(ctxErr) // no-op once the watcher or a failure got there first
					}
					return // job already failed elsewhere
				}
				if err != nil {
					fail(fmt.Errorf("cluster: task %q: %w", task.Name, err))
					return
				}
				// runAttempt releases the slot on every exit path (including
				// panics).
				lastErr = c.runAttempt(&task, node, slot)
				if lastErr == nil {
					return
				}
				// Blame the node and try elsewhere, as Hadoop's speculative
				// re-execution does after a task-tracker failure.
				avoid[node] = true
			}
			fail(fmt.Errorf("cluster: task %q failed after %d attempts: %w", task.Name, maxAttempts, lastErr))
		}()
	}
	wg.Wait()
	if watcher != nil {
		close(stop)
		<-watcher
	}
	return firstErr
}

// Paper returns the evaluation cluster of the reproduced paper: thirteen
// commodity machines — twelve with an Intel Pentium D 2.8 GHz Core2 and
// one with a 2.13 GHz part (speed 2.13/2.8 ≈ 0.76) — with the given task
// slots per node.
func Paper(slotsPerNode int) (*Cluster, error) {
	nodes := make([]Node, 13)
	for i := range nodes {
		nodes[i] = Node{Name: fmt.Sprintf("node%d", i), Slots: slotsPerNode, Speed: 1.0}
	}
	nodes[12].Speed = 2.13 / 2.8
	return New(nodes)
}
