package mapreduce

import (
	"sort"
	"sync"
)

// Standard counter names maintained by the engine. User code may add its
// own counters through TaskContext.Counters; names are free-form strings.
const (
	// CounterMapInputRecords counts records fed to Map across all mappers.
	CounterMapInputRecords = "map.input.records"
	// CounterMapOutputRecords counts key-value pairs emitted by mappers.
	CounterMapOutputRecords = "map.output.records"
	// CounterShuffleBytes counts key+value bytes crossing the shuffle.
	CounterShuffleBytes = "shuffle.bytes"
	// CounterDominanceTests counts the tuple-pair dominance tests a job's
	// tasks ran: the kernel work of the grid jobs and of the baselines
	// alike. The engine does not maintain it; each task adds its own.
	CounterDominanceTests = "dominance.tests"
	// CounterReduceInputKeys counts distinct keys seen by reducers.
	CounterReduceInputKeys = "reduce.input.keys"
	// CounterReduceInputRecords counts values fed to Reduce calls.
	CounterReduceInputRecords = "reduce.input.records"
	// CounterReduceOutputRecords counts key-value pairs emitted by reducers.
	CounterReduceOutputRecords = "reduce.output.records"

	// Fault-injection and recovery counters, maintained only when the
	// engine carries a FaultPlan (fault-free runs never create them, so
	// their counter snapshots are unchanged).

	// CounterTaskFailures counts failed task attempts (crashes and genuine
	// task errors; killed attempts are excluded).
	CounterTaskFailures = "task.failures"
	// CounterSpeculativeLaunched counts speculative duplicate attempts
	// launched.
	CounterSpeculativeLaunched = "task.speculative.launched"
	// CounterSpeculativeWon counts tasks where the speculative duplicate
	// finished before the original.
	CounterSpeculativeWon = "task.speculative.won"
	// CounterNodeFailures counts whole-node failures during the job.
	CounterNodeFailures = "node.failures"
	// CounterShuffleCorruptions counts shuffle segments whose first fetch
	// failed checksum verification and were refetched.
	CounterShuffleCorruptions = "shuffle.corruptions"
)

// Counters is a set of named int64 counters with two aggregation modes:
// Add-counters accumulate sums, Max-counters keep the maximum reported
// value. The Figure 11 experiment uses Max-counters to record the busiest
// mapper's and reducer's partition-wise comparison counts.
//
// Counters is safe for concurrent use.
type Counters struct {
	mu   sync.Mutex
	sums map[string]int64
	maxs map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{sums: make(map[string]int64), maxs: make(map[string]int64)}
}

// Add increases the sum-counter name by delta.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	c.sums[name] += delta
	c.mu.Unlock()
}

// SetMax raises the max-counter name to v if v is larger than the current
// value.
func (c *Counters) SetMax(name string, v int64) {
	c.mu.Lock()
	if v > c.maxs[name] {
		c.maxs[name] = v
	}
	c.mu.Unlock()
}

// Get returns the value of the sum-counter name (zero if absent).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sums[name]
}

// GetMax returns the value of the max-counter name (zero if absent).
func (c *Counters) GetMax(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxs[name]
}

// Merge folds other into c: sums add, maxes take the maximum. The engine
// merges a task's counters only after the task succeeds, so retried
// attempts never double-count.
func (c *Counters) Merge(other *Counters) {
	// other.Dump(), with the copies kept off the heap: this runs per task.
	other.mu.Lock()
	sums := make(map[string]int64, len(other.sums))
	for k, v := range other.sums {
		sums[k] = v
	}
	maxs := make(map[string]int64, len(other.maxs))
	for k, v := range other.maxs {
		maxs[k] = v
	}
	other.mu.Unlock()
	c.mergeDump(CounterDump{Sums: sums, Maxs: maxs})
}

// Snapshot returns all counters as a sorted list of name/value pairs, with
// max-counters suffixed ".max". It exists for logging and EXPERIMENTS.md
// generation.
func (c *Counters) Snapshot() []CounterValue {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CounterValue, 0, len(c.sums)+len(c.maxs))
	for k, v := range c.sums {
		out = append(out, CounterValue{Name: k, Value: v})
	}
	for k, v := range c.maxs {
		out = append(out, CounterValue{Name: k + ".max", Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CounterValue is one named counter reading.
type CounterValue struct {
	Name  string
	Value int64
}
