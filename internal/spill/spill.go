// Package spill is the external-memory shuffle substrate: it bounds how
// many shuffle bytes stay resident by flushing sorted, checksummed,
// length-prefixed run files to disk and replaying them through a k-way
// merge, so reducer inputs far larger than RAM stream through a fixed
// byte budget.
//
// Three pieces compose:
//
//   - Writer accumulates records in an in-memory arena and, whenever the
//     arena exceeds the configured budget, sorts it by raw key bytes
//     (stable, so arrival order survives as the tie-break) and flushes it
//     as one run file. A sequence of runs cut this way is totally ordered
//     in arrival time: every record of run i was added before every record
//     of run i+1.
//
//   - MergeTree reduces a long run list to at most fan-in F runs by
//     repeated contiguous F-way merge rounds — the round-efficient merge
//     shape of Goodrich's MapReduce sorting simulation, where each round
//     is one streaming pass. Contiguous grouping plus index tie-breaking
//     preserves the global (key, arrival) order end to end.
//
//   - Groups streams the final merge as per-key groups in key order, the
//     exact order the in-memory sort-based shuffle produces, so a reducer
//     fed from disk is byte-for-byte indistinguishable from one fed from
//     an arena.
//
// Run files carry an FNV-1a checksum verified as they are replayed; a
// mismatch surfaces as *CorruptError naming the file and its tag, which
// the engine maps to re-execution of the task that produced the run (and
// rpcexec's fetch path maps to its bounded-refetch contract).
package spill

import (
	"fmt"
	"os"
	"sync/atomic"

	"mrskyline/internal/frame"
	"mrskyline/internal/obs"
)

// DefaultFanIn is the merge fan-in used when Config.FanIn is zero: up to
// 8 runs are open simultaneously per merge, so a merge round holds at most
// 8 read buffers plus one write buffer resident.
const DefaultFanIn = 8

// Config shapes every spill decision of one job or engine. The zero value
// never spills (Budget 0 means unbounded residency), matching the
// engines' default all-in-RAM behaviour.
type Config struct {
	// Dir is the directory run files are written to; required whenever
	// Budget > 0. Callers typically place a per-job subdirectory here and
	// remove it when the job resolves.
	Dir string
	// Budget is the resident-byte bound: a Writer flushes its arena to a
	// sorted run once the arena's key+value payload exceeds it. 0 disables
	// spilling entirely.
	Budget int64
	// FanIn is the merge fan-in F (default DefaultFanIn): at most F runs
	// are merged per round, and a reduce-side merge never opens more than
	// F runs at once.
	FanIn int
	// Metrics, when non-nil, receives the mr.spill.* series: runs written,
	// spill bytes, merge rounds and fan-in. A nil registry is silently
	// discarded (obs registries are nil-safe).
	Metrics *obs.Registry
	// Stats, when non-nil, accumulates machine-readable totals across
	// every writer and merge attached to this config, including the peak
	// resident bytes the budget is meant to bound.
	Stats *Stats
}

// Enabled reports whether this configuration actually spills.
func (c *Config) Enabled() bool { return c != nil && c.Budget > 0 }

func (c *Config) fanIn() int {
	if c == nil || c.FanIn < 2 {
		return DefaultFanIn
	}
	return c.FanIn
}

// Validate checks the configuration as front ends receive it.
func (c *Config) Validate() error {
	if c == nil || c.Budget == 0 {
		return nil
	}
	if c.Budget < 0 {
		return fmt.Errorf("spill: budget must be positive, got %d", c.Budget)
	}
	if c.Dir == "" {
		return fmt.Errorf("spill: a spill directory is required when a budget is set")
	}
	if c.FanIn < 0 || c.FanIn == 1 {
		return fmt.Errorf("spill: merge fan-in must be ≥ 2 (or 0 for the default), got %d", c.FanIn)
	}
	if st, err := os.Stat(c.Dir); err != nil || !st.IsDir() {
		return fmt.Errorf("spill: directory %s is not a usable directory", c.Dir)
	}
	return nil
}

// Stats aggregates spill activity. All fields are updated atomically, so
// one Stats may be shared across concurrent writers and merges.
type Stats struct {
	// RunsWritten counts run files flushed (initial spills and merge-round
	// outputs alike).
	RunsWritten atomic.Int64
	// SpillBytes is the total key+value payload written to runs.
	SpillBytes atomic.Int64
	// MergeRounds counts completed merge rounds across all merge trees.
	MergeRounds atomic.Int64
	// resident tracks currently resident spill bytes (writer arenas plus
	// merge buffers); peak is its high-water mark — the number held
	// against the budget.
	resident atomic.Int64
	peak     atomic.Int64
}

// PeakResident returns the high-water mark of resident spill bytes.
func (s *Stats) PeakResident() int64 {
	if s == nil {
		return 0
	}
	return s.peak.Load()
}

// addResident moves the resident gauge by delta and advances the peak.
func (s *Stats) addResident(delta int64) {
	if s == nil {
		return
	}
	v := s.resident.Add(delta)
	for {
		p := s.peak.Load()
		if v <= p || s.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// CorruptError reports a run file whose contents do not match its
// checksum: frame's report of where, plus what the repair needs. Tag
// carries the producer identity the writer recorded (the engine stores the
// map-task id there), so the consumer can re-execute the producer instead
// of merely failing.
type CorruptError struct {
	Path  string
	Tag   int
	Frame frame.CorruptError
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("spill: run %s (tag %d) failed its checksum", e.Path, e.Tag)
}

func (e *CorruptError) Unwrap() error { return &e.Frame }
