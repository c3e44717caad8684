package mapreduce

// The virtual-clock driver: when an Engine carries a FaultPlan, a job's
// phases are scheduled as a discrete-event simulation over the cluster's
// slot topology instead of as goroutines on its blocking scheduler.
// Attempts occupy slots for a virtual duration derived from the plan (base
// cost × per-task jitter ÷ node speed × straggler factor), and the event
// loop advances from completion to completion, processing injected
// crashes, speculative launches and whole-node death strictly in
// virtual-time order with deterministic tie-breaking (slot index, then
// queue FIFO). Because no decision depends on wall-clock time or goroutine
// interleaving, two runs of the same job under the same plan produce
// bit-identical Histories, counters and per-node placement stats — the
// property the chaos test harness is built on.
//
// Attempts (jobRun.attempt — the same lifecycle the wall-clock driver
// runs) still execute for real, but sequentially, at the moment their
// completion event fires; killed attempts — speculative losers and
// attempts on a node when it dies — never run at all, so fault-free and
// faulty runs of a deterministic job emit identical output and identical
// job counters.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"mrskyline/internal/cluster"
)

// vslot is one schedulable slot of the virtual topology.
type vslot struct {
	node  string
	idx   int // slot index within the node (names the trace track)
	speed float64
}

// vdriver is the virtual clock and the scheduler's view of the cluster: a
// flat slot list in configuration order plus the free-slot counts and node
// liveness cluster.Place decides on. It lives for one job, so a node death
// in the map phase stays dead for the reduce phase.
type vdriver struct {
	plan  *FaultPlan
	now   time.Duration // the job's clock
	nodes []cluster.Node
	slots []vslot
	free  map[string]int
	dead  map[string]bool
	death *NodeFailure // pending death event; nil once fired or absent
	// startup is the per-attempt launch cost a SimConfig adds.
	startup time.Duration
}

func newVDriver(c *cluster.Cluster, plan *FaultPlan, sim *SimConfig) *vdriver {
	v := &vdriver{plan: plan, nodes: c.NodeInfo(), free: make(map[string]int), dead: make(map[string]bool), death: plan.NodeFailure}
	speeds := c.SlotSpeeds()
	for _, n := range v.nodes {
		if c.IsDown(n.Name) {
			v.dead[n.Name] = true
		}
		v.free[n.Name] = n.Slots
		for s := 0; s < n.Slots; s++ {
			v.slots = append(v.slots, vslot{node: n.Name, idx: s, speed: speeds[len(v.slots)]})
		}
	}
	if sim != nil {
		v.startup = sim.withDefaults().TaskStartup
	}
	return v
}

// vattempt is one attempt occupying a slot on the virtual clock.
type vattempt struct {
	task    int
	attempt int
	slot    int
	start   time.Duration
	finish  time.Duration
	spec    bool
}

// vtask is the scheduler's per-task state.
type vtask struct {
	issued    int // attempt numbers issued so far
	failures  int // failed attempts, counted against MaxAttempts
	running   int // attempts currently on slots (0..2)
	avoid     map[string]bool
	specTried bool
	done      bool
	node      string // node the winning attempt committed on
}

// vrequest is one queued execution request (FIFO).
type vrequest struct {
	task  int
	retry bool // re-execution after a failure, kill or lost output
}

// runVirtual is the virtual-clock driver: it runs one phase as a
// discrete-event simulation, leaving the clock at the moment the phase's
// last task committed.
func (j *jobRun) runVirtual(ctx context.Context, ph *phase) error {
	v, plan, res := j.v, j.v.plan, j.res
	const never = time.Duration(math.MaxInt64)

	tasks := make([]vtask, ph.numTasks)
	remaining := ph.numTasks
	queue := make([]vrequest, 0, ph.numTasks)
	for t := range tasks {
		tasks[t].avoid = make(map[string]bool)
		queue = append(queue, vrequest{task: t})
	}
	busy := make([]*vattempt, len(v.slots))
	var completedDurs []time.Duration

	launch := func(task, slot int, spec bool) {
		st, s := &tasks[task], v.slots[slot]
		st.issued++
		cost := time.Duration((float64(plan.taskBaseCost())*plan.costJitter(ph.phase, task) + float64(v.startup)) /
			s.speed * plan.stragglerMult(s.node))
		if plan.crash(ph.phase, task, st.issued) != crashNone {
			cost /= 2 // crashed attempts die mid-run
		}
		busy[slot] = &vattempt{task: task, attempt: st.issued, slot: slot, start: v.now, finish: v.now + cost, spec: spec}
		v.free[s.node]--
		st.running++
	}
	// vacate takes the attempt off its slot.
	vacate := func(slot int) *vattempt {
		a := busy[slot]
		busy[slot] = nil
		v.free[v.slots[slot].node]++
		tasks[a.task].running--
		return a
	}

	// schedule places queued tasks, FIFO, wherever cluster.Place — the
	// policy the wall-clock scheduler blocks on — finds a node, on that
	// node's lowest free slot.
	schedule := func() error {
		var kept []vrequest
		for _, req := range queue {
			st := &tasks[req.task]
			if st.done {
				continue
			}
			node, err := cluster.Place(v.nodes, v.free, v.dead, st.avoid, req.retry, &res.ClusterStats)
			if err != nil {
				return fmt.Errorf("task %q: %w", j.taskName(ph, req.task), err)
			}
			if node == "" {
				kept = append(kept, req)
				continue
			}
			for s := range v.slots {
				if v.slots[s].node == node && busy[s] == nil {
					launch(req.task, s, false)
					break
				}
			}
		}
		queue = kept
		return nil
	}

	median := func(ds []time.Duration) time.Duration {
		s := slices.Clone(ds)
		slices.Sort(s)
		n := len(s)
		return (s[(n-1)/2] + s[n/2]) / 2
	}
	specThreshold := func() (time.Duration, bool) {
		sc := plan.Speculative
		if sc == nil || len(completedDurs) < sc.minCompleted() {
			return 0, false
		}
		return time.Duration(sc.slowdownThreshold() * float64(median(completedDurs))), true
	}
	// specSlotFor returns the slot a duplicate of a would take, or -1: a
	// must be an original running alone whose task was never duplicated,
	// and the slot free on a different alive node (Hadoop never speculates
	// on the same node) the task has not failed on.
	specSlotFor := func(a *vattempt) int {
		if a == nil || a.spec || tasks[a.task].specTried || tasks[a.task].running != 1 {
			return -1
		}
		node := v.slots[a.slot].node
		for s := range v.slots {
			n := v.slots[s].node
			if !v.dead[n] && busy[s] == nil && n != node && !tasks[a.task].avoid[n] {
				return s
			}
		}
		return -1
	}
	speculate := func() {
		threshold, ok := specThreshold()
		if !ok || len(queue) > 0 { // pending originals outrank duplicates
			return
		}
		for _, a := range busy {
			dup := specSlotFor(a)
			if dup < 0 || v.now-a.start < threshold {
				continue
			}
			tasks[a.task].specTried = true
			launch(a.task, dup, true)
			// A duplicate is a started attempt like any other.
			res.ClusterStats.Count(v.slots[dup].node, false)
			res.Counters.Add(CounterSpeculativeLaunched, 1)
		}
	}

	record := func(a *vattempt) TaskRecord {
		s := v.slots[a.slot]
		return TaskRecord{
			Phase: ph.phase, TaskID: a.task, Attempt: a.attempt, Node: s.node, Slot: s.idx,
			Start: a.start, Duration: a.finish - a.start, Speculative: a.spec,
		}
	}

	// kill takes a running attempt off its slot without ever running it.
	kill := func(slot int, reason string) {
		a := vacate(slot)
		rec := record(a)
		rec.Duration = v.now - a.start
		j.kill(ph, rec, reason)
	}

	complete := func(slot int) error {
		a := vacate(slot)
		node := v.slots[slot].node
		st := &tasks[a.task]
		rec := record(a)
		if err := j.attempt(ph, rec); err != nil {
			spent := j.failed(ph, rec, &st.failures, err)
			st.avoid[node] = true
			if st.running > 0 {
				return nil // the task's other copy may still win
			}
			if spent != nil {
				return spent
			}
			queue = append(queue, vrequest{task: a.task, retry: true})
			return nil
		}
		j.attemptSpan(ph, rec, "ok")
		st.done = true
		st.node = node
		remaining--
		completedDurs = append(completedDurs, a.finish-a.start)
		if a.spec {
			res.Counters.Add(CounterSpeculativeWon, 1)
		}
		if st.running > 0 {
			// The losing copy of the speculative race is killed the moment
			// the winner commits; its output is never observed.
			reason := "killed: original attempt finished first"
			if a.spec {
				reason = "killed: speculative duplicate finished first"
			}
			for s := range busy {
				if b := busy[s]; b != nil && b.task == a.task {
					kill(s, reason)
				}
			}
		}
		return nil
	}

	processDeath := func() {
		nf := v.death
		v.death = nil
		if _, known := v.free[nf.Node]; !known || v.dead[nf.Node] {
			return // unknown or already-dead node: the event is a no-op
		}
		v.dead[nf.Node] = true
		res.Counters.Add(CounterNodeFailures, 1)
		for s := range busy {
			if busy[s] == nil || v.slots[s].node != nf.Node {
				continue
			}
			a := busy[s]
			kill(s, fmt.Sprintf("killed: node %s failed", nf.Node))
			// Killed is not failed: the retry consumes no MaxAttempts budget.
			if st := &tasks[a.task]; !st.done && st.running == 0 {
				queue = append(queue, vrequest{task: a.task, retry: true})
			}
		}
		// Committed tasks whose output sat on the dead node re-execute
		// elsewhere.
		if ph.uncommit != nil {
			for t := range tasks {
				st := &tasks[t]
				if st.done && st.node == nf.Node {
					ph.uncommit(t)
					ph.staged[t] = nil
					st.done = false
					st.node = ""
					remaining++
					queue = append(queue, vrequest{task: t, retry: true})
				}
			}
		}
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := schedule(); err != nil {
			return err
		}
		speculate()
		if remaining == 0 {
			return nil
		}

		// Next completion event (earliest finish; ties break on slot index
		// because the scan takes the first strictly-smaller finish).
		nextFinish, nextSlot := never, -1
		for s := range busy {
			if busy[s] != nil && busy[s].finish < nextFinish {
				nextFinish, nextSlot = busy[s].finish, s
			}
		}

		// Pending node death, clamped forward to the current clock.
		tDeath := never
		if v.death != nil {
			tDeath = v.death.At
			if tDeath < v.now {
				tDeath = v.now
			}
		}

		// Earliest instant a running attempt becomes speculatable (median
		// known, duplicate slot available): a synthetic event, because the
		// straggler's own completion may be far beyond every other finish and
		// the speculator must fire between events, not just at them.
		tSpec := never
		if threshold, ok := specThreshold(); ok && len(queue) == 0 {
			for _, a := range busy {
				if specSlotFor(a) < 0 {
					continue
				}
				if due := a.start + threshold; due > v.now && due < tSpec {
					tSpec = due
				}
			}
		}

		switch {
		case tDeath <= nextFinish && tDeath <= tSpec && tDeath < never:
			v.now = tDeath
			processDeath()
		case tSpec < nextFinish:
			v.now = tSpec // speculate() fires at the top of the loop
		case nextSlot < 0:
			// Tasks remain but nothing runs and nothing was placed.
			return errors.New("virtual scheduler stalled")
		default:
			v.now = nextFinish
			if err := complete(nextSlot); err != nil {
				return err
			}
		}
	}
}
