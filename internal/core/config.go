package core

import (
	"context"
	"fmt"
	"time"

	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/skyline"
)

// Config parametrizes the grid-partitioning skyline algorithms. The zero
// value of every optional field selects the paper's default behaviour.
type Config struct {
	// Engine executes the MapReduce jobs; required. Any
	// mapreduce.Executor works: the in-process *mapreduce.Engine (the
	// default everywhere) or rpcexec's multi-process backend.
	Engine mapreduce.Executor
	// Ctx, when non-nil, bounds every job of the run: it flows into
	// Executor.RunContext, so a deadline or cancellation aborts
	// queued admission waits and stops task placement. Nil means
	// context.Background().
	Ctx context.Context

	// NumMappers is the map task count (the m of the paper). Defaults to
	// the cluster's total slot count.
	NumMappers int
	// NumReducers is the reduce task count for MR-GPMRS (the r of
	// Algorithm 8). MR-GPSRS always uses a single reducer. Defaults to the
	// number of cluster nodes, matching the paper's "one reducer per node".
	NumReducers int

	// PPD fixes the partitions-per-dimension: job 1 runs it as its one
	// candidate. Zero selects it with the MapReduce heuristic of Section
	// 3.3 over a candidate series thinned to DefaultMaxPPDCandidates.
	PPD int

	// Kernel is the local-skyline algorithm inside tasks (default BNL, the
	// paper's Algorithm 4; SFS is the future-work ablation).
	Kernel skyline.Kernel
	// Merge selects the group-merging policy of Section 5.4.1 (default:
	// computation-cost balancing, the paper's choice).
	Merge grid.MergeStrategy
	// DisablePruning skips the Equation 2 partition pruning on the global
	// bitstring (occupancy only). Ablation switch; never an improvement.
	DisablePruning bool

	// Lo and Hi bound the data domain per dimension (half-open boxes
	// [Lo, Hi)); both nil selects the unit box [0,1)^d the synthetic
	// generators produce. Tuples outside the box are clamped into boundary
	// grid cells, which degrades pruning but never correctness.
	Lo, Hi []float64
}

// ctx resolves the run context.
func (c *Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// validate normalizes and checks the configuration against the data shape.
func (c *Config) validate(d int) error {
	if c.Engine == nil {
		return fmt.Errorf("core: Config.Engine is required")
	}
	if d < 1 {
		return fmt.Errorf("core: dimensionality must be ≥ 1, got %d", d)
	}
	if c.PPD < 0 {
		return fmt.Errorf("core: PPD must be ≥ 0, got %d", c.PPD)
	}
	if c.PPD == 1 {
		return fmt.Errorf("core: PPD 1 creates a single partition; use ≥ 2 or 0 for auto")
	}
	if (c.Lo == nil) != (c.Hi == nil) {
		return fmt.Errorf("core: Lo and Hi must both be set or both nil")
	}
	if c.Lo != nil && (len(c.Lo) != d || len(c.Hi) != d) {
		return fmt.Errorf("core: bounds dimensionality %d/%d does not match data d=%d", len(c.Lo), len(c.Hi), d)
	}
	return nil
}

func (c *Config) mappers() int {
	if c.NumMappers > 0 {
		return c.NumMappers
	}
	return c.Engine.TotalSlots()
}

func (c *Config) reducers() int {
	if c.NumReducers > 0 {
		return c.NumReducers
	}
	return c.Engine.NumNodes()
}

// Stats reports what one algorithm run did: grid shape, pruning
// effectiveness, job counters and phase timings. The experiment harness
// turns these into the paper's figures.
type Stats struct {
	// Algorithm names the algorithm that produced the stats.
	Algorithm string
	// PPD is the grid's partitions-per-dimension (chosen or fixed).
	PPD int
	// AutoPPD reports whether the Section 3.3 job chose the PPD.
	AutoPPD bool
	// Partitions is n^d.
	Partitions int
	// NonEmpty is the number of occupied partitions before pruning.
	NonEmpty int
	// Surviving is the number of partitions left after Equation 2 pruning.
	Surviving int
	// Groups is the number of independent partition groups (MR-GPMRS).
	Groups int
	// MergedGroups is the number of reducer buckets after merging.
	MergedGroups int
	// SkylineSize is the global skyline cardinality.
	SkylineSize int

	// MapperPartCmpMax / ReducerPartCmpMax are the partition-wise
	// comparison counts of the busiest mapper and reducer (the measured
	// series of Figure 11).
	MapperPartCmpMax  int64
	ReducerPartCmpMax int64
	// DominanceTests is the total number of tuple-pair dominance checks
	// across all tasks of the skyline job.
	DominanceTests int64
	// ShuffleBytes is the total key+value volume shuffled by all jobs.
	ShuffleBytes int64
	// ReduceOutputRecords is the skyline job's reduce output record count
	// (mapreduce.CounterReduceOutputRecords). The chaos harness compares it
	// between faulty and fault-free runs: recovery must not duplicate or
	// drop output.
	ReduceOutputRecords int64

	// Fault-injection telemetry, summed over both jobs; all zero unless the
	// engine carries a mapreduce.FaultPlan.

	// TaskFailures counts failed task attempts (injected crashes and task
	// errors).
	TaskFailures int64
	// SpeculativeLaunched / SpeculativeWon count speculative duplicate
	// attempts launched and races the duplicate won.
	SpeculativeLaunched int64
	SpeculativeWon      int64
	// NodeFailures counts whole-node deaths during the run.
	NodeFailures int64
	// ShuffleCorruptions counts shuffle segments refetched after checksum
	// mismatch.
	ShuffleCorruptions int64

	// BitstringTime covers PPD selection and/or bitstring generation;
	// SkylineTime covers the skyline job; Total is their sum. All three
	// are host wall-clock times.
	BitstringTime time.Duration
	SkylineTime   time.Duration
	Total         time.Duration
	// SimulatedTotal is the summed simulated cluster time of both jobs;
	// zero unless the engine carries a mapreduce.SimConfig. The experiment
	// harness plots this, because the paper's runtime curves are cluster
	// makespans, which a single host cannot observe as wall-clock.
	SimulatedTotal time.Duration
}

// Counter names used by the skyline jobs.
const (
	// counterPartCmp accumulates executions of the critical operation of
	// ComparePartitions (line 3 of Algorithm 5) within one task; tasks
	// fold it into the job-level maxima below.
	counterPartCmpMapMax    = "gp.partcmp.map"
	counterPartCmpReduceMax = "gp.partcmp.reduce"
	counterDominanceTests   = "gp.dominance.tests"
)

// cacheKeyBitstring is the distributed-cache entry holding the global
// bitstring for the skyline jobs.
const cacheKeyBitstring = "global-bitstring"
