package mapreduce

import (
	"encoding/binary"
	"hash/fnv"
	"time"
)

// FaultPlan is a fully deterministic fault-injection schedule, the chaos
// side of the engine. Every decision — whether an attempt crashes, which
// nodes straggle, which shuffle segments arrive corrupted — is a pure
// function of the Seed and the decision's coordinates (phase, task id,
// attempt, node name), never of wall-clock time or scheduling order. Two
// runs with the same plan therefore inject exactly the same faults, and the
// whole job executes on a virtual clock (see Engine.Faults), so task
// placements, histories and counters reproduce bit-for-bit.
//
// Each fault mirrors a Hadoop failure mode:
//
//   - Crashes model task-attempt failures (a thrown exception or a JVM
//     crash); the error flavor returns from the attempt, the panic flavor
//     panics out of it, and both flow through the MaxAttempts retry budget.
//   - Stragglers model slow TaskTrackers: a straggling node multiplies
//     every attempt's duration, which is what speculative execution exists
//     to mask.
//   - Shuffle corruption models a bad fetch of a map-output segment; the
//     engine detects it via a per-segment checksum and refetches, as
//     Hadoop's reducers re-pull a failed map-output transfer.
//   - NodeFailure models losing a whole TaskTracker at a simulated time:
//     running attempts on the node die, and completed map tasks whose
//     output lived there are re-executed elsewhere (map output is stored on
//     the mapper's local disk in Hadoop, so it dies with the node).
type FaultPlan struct {
	// Seed drives every pseudo-random decision. Plans with equal seeds and
	// rates are identical; different seeds give independent schedules.
	Seed int64

	// CrashRate is the per-attempt probability that a task attempt crashes
	// mid-run. Crashed attempts consume half their virtual duration.
	CrashRate float64
	// PanicFraction is the fraction of crashes delivered as panics instead
	// of returned errors (exercising the engine's panic recovery). Zero
	// defaults to 0.5; set negative for errors only.
	PanicFraction float64

	// StragglerRate is the per-node probability that a node is a straggler
	// for the whole job.
	StragglerRate float64
	// StragglerFactor multiplies attempt durations on straggler nodes.
	// Zero defaults to 4.
	StragglerFactor float64

	// CorruptRate is the per-segment probability that the first fetch of a
	// (mapper, reducer) shuffle segment arrives corrupted. The corruption is
	// transient: the checksum catches it and the refetch succeeds. Segments
	// spilled to run files (Engine.Spill) are not fetched at shuffle time
	// and so are never corrupted by the plan; their runs carry their own
	// checksums, with map re-execution as the repair.
	CorruptRate float64

	// NodeFailure, when non-nil, kills one whole node at a simulated time.
	NodeFailure *NodeFailure

	// TaskBaseCost is the virtual duration of one attempt before jitter,
	// node speed and straggler scaling. Zero defaults to 100ms.
	TaskBaseCost time.Duration

	// Speculative, when non-nil, enables speculative execution on the
	// virtual schedule.
	Speculative *SpeculativeConfig
}

// NodeFailure schedules the loss of one node.
type NodeFailure struct {
	// Node names the node that dies (must exist in the cluster; unknown
	// names are ignored).
	Node string
	// At is the simulated time of death, on the job's virtual clock
	// (time zero = first task of the map phase starts).
	At time.Duration
}

// SpeculativeConfig tunes speculative execution: when a running attempt's
// virtual elapsed time exceeds SlowdownThreshold times the median completed
// attempt duration of its phase, and a slot is free on another node, the
// scheduler launches a duplicate attempt and takes whichever copy finishes
// first (Hadoop's mapred.map/reduce.tasks.speculative.execution).
type SpeculativeConfig struct {
	// SlowdownThreshold is the multiple of the median completed-task
	// duration beyond which a task is considered a straggler. Zero defaults
	// to 1.5.
	SlowdownThreshold float64
	// MinCompleted is how many attempts of the phase must have completed
	// before the median is trusted. Zero defaults to 3.
	MinCompleted int
}

// crashKind classifies the injected failure flavor of one attempt.
type crashKind int

const (
	crashNone crashKind = iota
	crashError
	crashPanic
)

// Defaulted knob accessors.

func (p *FaultPlan) panicFraction() float64 {
	switch {
	case p.PanicFraction < 0:
		return 0
	case p.PanicFraction == 0:
		return 0.5
	default:
		return p.PanicFraction
	}
}

func (p *FaultPlan) stragglerFactor() float64 {
	if p.StragglerFactor <= 0 {
		return 4
	}
	return p.StragglerFactor
}

func (p *FaultPlan) taskBaseCost() time.Duration {
	if p.TaskBaseCost <= 0 {
		return 100 * time.Millisecond
	}
	return p.TaskBaseCost
}

func (s *SpeculativeConfig) slowdownThreshold() float64 {
	if s.SlowdownThreshold <= 0 {
		return 1.5
	}
	return s.SlowdownThreshold
}

func (s *SpeculativeConfig) minCompleted() int {
	if s.MinCompleted <= 0 {
		return 3
	}
	return s.MinCompleted
}

// roll hashes the seed with a decision label and integer coordinates into a
// uniform float64 in [0, 1). FNV-1a keeps it dependency-free and stable
// across platforms and Go versions.
func (p *FaultPlan) roll(label string, coords ...int64) float64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(p.Seed))
	h.Write(buf[:])
	h.Write([]byte(label))
	for _, c := range coords {
		binary.LittleEndian.PutUint64(buf[:], uint64(c))
		h.Write(buf[:])
	}
	// 53 mantissa bits of the hash give a uniform dyadic in [0, 1).
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// rollNode is roll keyed by a node name.
func (p *FaultPlan) rollNode(label, node string) float64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(p.Seed))
	h.Write(buf[:])
	h.Write([]byte(label))
	h.Write([]byte(node))
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// crash decides whether (and how) one task attempt crashes.
func (p *FaultPlan) crash(phase Phase, task, attempt int) crashKind {
	r := p.roll("crash", int64(phase), int64(task), int64(attempt))
	if r >= p.CrashRate {
		return crashNone
	}
	// Reuse the position of r inside the accepted interval to pick the
	// flavor, so flavor choice needs no second hash.
	if r < p.CrashRate*p.panicFraction() {
		return crashPanic
	}
	return crashError
}

// stragglerMult returns the duration multiplier of a node: 1 for healthy
// nodes, StragglerFactor for stragglers.
func (p *FaultPlan) stragglerMult(node string) float64 {
	if p.StragglerRate > 0 && p.rollNode("straggler", node) < p.StragglerRate {
		return p.stragglerFactor()
	}
	return 1
}

// corruptSegment decides whether the first fetch of mapper m's segment for
// reducer r arrives corrupted.
func (p *FaultPlan) corruptSegment(m, r int) bool {
	return p.CorruptRate > 0 && p.roll("corrupt", int64(m), int64(r)) < p.CorruptRate
}

// costJitter spreads attempt durations over [0.75, 1.25)× the base cost so
// medians and stragglers are meaningful; it depends on the task, not the
// attempt, so retries of a task model re-running the same work.
func (p *FaultPlan) costJitter(phase Phase, task int) float64 {
	return 0.75 + 0.5*p.roll("cost", int64(phase), int64(task))
}
