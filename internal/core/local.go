package core

import (
	"fmt"

	"mrskyline/internal/bitstring"
	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/skyline"
	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// localState is the shared mapper-side machinery of Algorithms 3 and 8:
// per-partition local skyline windows (columnar, see the window package)
// gated by the global bitstring, followed by cross-partition
// false-positive elimination.
type localState struct {
	g      *grid.Grid
	bs     *bitstring.Bitstring
	kernel skyline.Kernel
	s      winMap
	// buffered tuples per partition, used by the batch kernels (SFS, D&C),
	// which need the whole partition before running.
	pending map[int]tuple.List
	cnt     skyline.Count
	inserts window.InsertSampler
	// partCmp counts partition-wise comparisons (Algorithm 5 line 3
	// executions) performed by this task.
	partCmp int64
}

func newLocalState(g *grid.Grid, bs *bitstring.Bitstring, kernel skyline.Kernel) *localState {
	ls := &localState{g: g, bs: bs, kernel: kernel, s: make(winMap)}
	if kernel != skyline.KernelBNL {
		ls.pending = make(map[int]tuple.List)
	}
	return ls
}

// add processes one input tuple (Algorithm 3 lines 2–8): locate its
// partition, skip it when the bitstring pruned the partition, otherwise
// fold it into the partition's local skyline window. reg receives the
// task's sampled Insert latencies (nil: none).
func (ls *localState) add(reg *obs.Registry, t tuple.Tuple) error {
	if len(t) != ls.g.Dim() {
		return fmt.Errorf("core: tuple dimensionality %d does not match grid d=%d", len(t), ls.g.Dim())
	}
	j := ls.g.Locate(t)
	if !ls.bs.Get(j) {
		return nil
	}
	if ls.pending != nil {
		ls.pending[j] = append(ls.pending[j], t)
		return nil
	}
	ls.inserts.Insert(reg, ls.s.window(j, ls.g.Dim()), t, &ls.cnt)
	return nil
}

// finish completes the local phase: materialize batch-kernel windows if
// needed, then run ComparePartitions across the mapper's partitions
// (Algorithm 3 lines 9–10). It returns the resulting window map.
func (ls *localState) finish() winMap {
	if ls.pending != nil {
		for p, data := range ls.pending {
			ls.s[p] = window.FromList(ls.g.Dim(), ls.kernel.Compute(data, &ls.cnt))
		}
		ls.pending = nil
	}
	comparePartitions(ls.s, ls.g, &ls.cnt, &ls.partCmp)
	return ls.s
}

// recordCounters folds the task's comparison telemetry into its counter
// set; max-counters give the busiest task per phase (Figure 11), the sum
// counter gives total dominance work.
func (ls *localState) recordCounters(ctx *mapreduce.TaskContext, phase mapreduce.Phase) {
	name := counterPartCmpMapMax
	if phase == mapreduce.PhaseReduce {
		name = counterPartCmpReduceMax
	}
	ctx.Counters.SetMax(name, ls.partCmp)
	recordDominanceTests(ctx, &ls.cnt)
}

// recordDominanceTests is where a task accounts for its kernel work, once,
// when it flushes: the job counter behind Stats.DominanceTests and the
// service-lifetime obs counter receive the same number from the one Count
// the task threaded through every window operation and batch kernel.
func recordDominanceTests(ctx *mapreduce.TaskContext, cnt *skyline.Count) {
	ctx.Counters.Add(counterDominanceTests, cnt.DominanceTests)
	ctx.Trace.Metrics().Count(window.MetricDominanceTests, cnt.DominanceTests)
}

// comparePartitions implements Algorithm 5 applied to every partition of S
// (as Algorithm 3 lines 9–10 and Algorithm 6 lines 7–8 do): for each local
// skyline S_p, remove the tuples dominated by a tuple of any S_pi with
// pi ∈ p.ADR. partCmp is incremented once per (p, pi) pair processed — the
// "critical operation" the Section 6 cost model estimates.
//
// The result is order-independent: a tuple of S_p survives exactly when no
// tuple in any anti-dominating partition's window dominates it, so mutating
// S in place during the loop cannot change the outcome (a window tuple
// removed early is itself dominated by a tuple in a window that also
// filters S_p, by ADR transitivity).
func comparePartitions(s winMap, g *grid.Grid, cnt *skyline.Count, partCmp *int64) {
	parts := s.sortedPartitions()
	for _, p := range parts {
		sp := s[p]
		for _, pi := range parts {
			if pi == p || s[pi].Len() == 0 || !g.InADR(pi, p) {
				continue
			}
			*partCmp++
			sp.FilterBy(s[pi], cnt)
			if sp.Len() == 0 {
				break
			}
		}
	}
	// Drop partitions whose windows were fully eliminated so they are not
	// shuffled as empty payloads.
	for _, p := range parts {
		if s[p].Len() == 0 {
			delete(s, p)
		}
	}
}
