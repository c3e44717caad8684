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

// partWindows is what every skyline task of the grid algorithms holds,
// mapper or reducer: the per-partition local skylines S as score-ordered
// columnar windows, the task's comparison telemetry, and the one scratch
// all of its window operations work in.
type partWindows struct {
	g    *grid.Grid
	s    window.Map
	pool *window.Pool // the job's; nil allocates every window
	cnt  skyline.Count
	// partCmp counts partition-wise comparisons (Algorithm 5 line 3
	// executions) performed by this task.
	partCmp int64
	sc      window.Scratch
	// adr and dims are comparePartitions' list of one partition's ADR
	// partitions, reused across partitions.
	adr  []adrPart
	dims []int
}

// adrPart is one partition q ∈ p.ADR held by the task: dims[lo:hi] are the
// dimensions on which the cells of q and p coincide (grid.ADRDims).
type adrPart struct{ q, lo, hi int }

// localState is the shared mapper-side machinery of Algorithms 3 and 8:
// per-partition local skyline windows (columnar, see the window package)
// gated by the global bitstring, followed by cross-partition
// false-positive elimination.
type localState struct {
	partWindows
	bs      *bitstring.Bitstring
	inserts window.InsertSampler
}

func newLocalState(g *grid.Grid, bs *bitstring.Bitstring, pool *window.Pool) *localState {
	return &localState{partWindows: partWindows{g: g, s: make(window.Map), pool: pool}, bs: bs}
}

// mapRows processes a run of input rows (Algorithm 3 lines 2–8): per row,
// locate its partition, skip it when the bitstring pruned the partition,
// otherwise fold it into the partition's local skyline window. reg
// receives the task's sampled Insert latencies (nil: none). A window
// keeps the row itself: no tuple is allocated for a kept row.
func (ls *localState) mapRows(reg *obs.Registry, rows [][]float64) error {
	d := ls.g.Dim()
	if len(rows[0]) != d {
		return fmt.Errorf("core: tuple dimensionality %d does not match grid d=%d", len(rows[0]), d)
	}
	// The windows of the partitions inserted into lately, by partition mod
	// 16, so that a tuple does not look its window up in the map: no window
	// is removed before finish. The 16 slots are fixed, whatever the grid.
	var recent [16]struct {
		p int
		w *window.Window
	}
	for _, row := range rows {
		t := tuple.Tuple(row)
		j := ls.g.Locate(t)
		if !ls.bs.Get(j) {
			continue
		}
		e := &recent[j%len(recent)]
		if e.w == nil || e.p != j {
			e.p, e.w = j, ls.s[j]
			if e.w == nil {
				e.w = ls.pool.Get(d)
				ls.s[j] = e.w
			}
		}
		ls.inserts.Insert(reg, e.w, t, &ls.cnt)
	}
	return nil
}

// finish completes the local phase: run ComparePartitions across the
// mapper's partitions (Algorithm 3 lines 9–10), then put every window in
// score order — once, and after Algorithm 5 has shrunk it, which needs no
// order — so each partition leaves the mapper as one sorted run. It
// returns the resulting window map.
func (ls *localState) finish() window.Map {
	ls.comparePartitions(nil)
	for _, w := range ls.s {
		w.Order(&ls.sc)
	}
	return ls.s
}

// mergeRuns is the reducer side of the same state (Algorithm 6 lines 1–6,
// Algorithm 9 lines 1–8): the mappers' local skylines of partition p, each
// a score-ordered run, merged into the partition's one ordered window. A
// run that arrives out of order fails the task.
func (pw *partWindows) mergeRuns(p int, runs []tuple.List) error {
	if _, dup := pw.s[p]; dup {
		return fmt.Errorf("core: partition %d merged twice", p)
	}
	w, err := window.MergeRuns(pw.g.Dim(), runs, pw.pool, &pw.sc, &pw.cnt)
	if err != nil {
		return fmt.Errorf("core: partition %d run out of score order", p)
	}
	pw.s[p] = w
	return nil
}

// recordCounters folds the task's comparison telemetry into its counter
// set; max-counters give the busiest task per phase (Figure 11), the sum
// counter gives total dominance work. It is where a task accounts for its
// kernel work, once, when it flushes: the job counter behind
// Stats.DominanceTests and the service-lifetime obs counter receive the
// same number from the one Count the task threaded through every window
// operation.
func (pw *partWindows) recordCounters(ctx *mapreduce.TaskContext, phase mapreduce.Phase) {
	name := counterPartCmpMapMax
	if phase == mapreduce.PhaseReduce {
		name = counterPartCmpReduceMax
	}
	ctx.Counters.SetMax(name, pw.partCmp)
	ctx.Counters.Add(mapreduce.CounterDominanceTests, pw.cnt.DominanceTests)
	ctx.Trace.Metrics().Count(window.MetricDominanceTests, pw.cnt.DominanceTests)
}

// comparePartitions implements Algorithm 5 (Algorithm 3 lines 9–10,
// Algorithm 6 lines 7–8) on the partitions of S that only names, all when
// nil: remove from S_p the tuples dominated by a tuple of any S_q, q ∈ p.ADR.
// partCmp counts the (p, q) pairs processed, Section 6's critical operation.
//
// A pair is compared only on what the grid has not already decided: on
// every dimension where q's cell coordinate is below p's, all of S_q is
// strictly below all of S_p, so u ∈ S_q dominates t ∈ S_p exactly when
// u ≤ t on the dimensions E the two cells share (grid.ADRDims), and
// FilterOn tests those alone. Partitions of p.ADR are visited in order of
// |E|: the fewer dimensions left open, the closer q lies to the origin
// corner, the cheaper its test and the more of S_p it removes before the
// |E| = d − 1 neighbours are touched.
//
// The result is order-independent: a tuple of S_p survives exactly when no
// tuple in any anti-dominating partition's window dominates it, so mutating
// S in place during the loop cannot change the outcome (a window tuple
// removed early is itself dominated by a tuple in a window that also
// filters S_p, by ADR transitivity).
func (pw *partWindows) comparePartitions(only map[int]bool) {
	parts := pw.s.Sorted()
	for _, p := range parts {
		if only != nil && !only[p] {
			continue
		}
		sp := pw.s[p]
		adr, dims := pw.adr[:0], pw.dims[:0]
		for _, q := range parts {
			if q >= p {
				break // p.ADR lies below p in index order
			}
			lo := len(dims)
			var in bool
			if dims, in = pw.g.ADRDims(q, p, dims); in {
				adr = append(adr, adrPart{q, lo, len(dims)})
			}
		}
		pw.adr, pw.dims = adr, dims
		for e := 0; e < pw.g.Dim() && sp.Len() > 0; e++ {
			for _, a := range adr {
				sq := pw.s[a.q]
				if a.hi-a.lo != e || sq.Len() == 0 {
					continue
				}
				pw.partCmp++
				sp.FilterOn(sq, dims[a.lo:a.hi], &pw.sc, &pw.cnt)
				if sp.Len() == 0 {
					break
				}
			}
		}
	}
	// Drop partitions whose windows were fully eliminated so they are not
	// shuffled as empty payloads.
	for _, p := range parts {
		if pw.s[p].Len() == 0 {
			delete(pw.s, p)
		}
	}
}

// release hands the windows of the partitions only names, all when nil,
// back to the job's pool once the task has emitted them.
func (pw *partWindows) release(only map[int]bool) {
	for p, w := range pw.s {
		if only == nil || only[p] {
			pw.pool.Put(w)
		}
	}
	pw.s = nil
}

// emitRows outputs the task's skyline tuples, one record each, partitions
// in ascending order; only, when non-nil, names the partitions to output.
func (pw *partWindows) emitRows(emit mapreduce.Emitter, only map[int]bool) {
	var scratch []byte
	for _, p := range pw.s.Sorted() {
		if only != nil && !only[p] {
			continue
		}
		for _, t := range pw.s[p].Rows() {
			scratch = tuple.AppendEncode(scratch[:0], t)
			emit(nil, scratch)
		}
	}
}
