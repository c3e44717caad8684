package mapreduce

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// TaskRecord describes one task attempt, successful or not — the
// per-attempt bookkeeping a JobTracker would expose in its history UI.
type TaskRecord struct {
	// Phase is the attempt's phase (map or reduce).
	Phase Phase
	// TaskID is the task index within the phase.
	TaskID int
	// Attempt numbers the attempt, starting at 1.
	Attempt int
	// Node is the simulated node the attempt ran on.
	Node string
	// Slot is the 0-based slot index on Node the attempt occupied.
	Slot int
	// Start is the attempt's start offset — from job start on the
	// wall-clock path, or on the virtual clock under a FaultPlan. Together
	// with Duration it places the attempt on the job timeline.
	Start time.Duration
	// Duration is the attempt's execution time (excluding queueing). Under
	// a FaultPlan this is the attempt's virtual duration on the simulated
	// clock, so it reproduces exactly across runs.
	Duration time.Duration
	// Err holds the failure message for failed attempts, "" on success.
	Err string
	// Speculative marks duplicate attempts launched by speculative
	// execution (the backup copy, not the original).
	Speculative bool
	// Killed marks attempts terminated by the scheduler rather than failed:
	// the losing copy of a speculative race, or an attempt running on a
	// node when it died. Killed attempts carry an Err describing the kill
	// but do not count as task failures.
	Killed bool
}

// History collects the task attempts of one job. It is safe for
// concurrent use during the job and immutable afterwards.
type History struct {
	mu      sync.Mutex
	records []TaskRecord
}

// Append records one attempt; the engine's attempt lifecycle reports
// through it. A nil History discards the record: a worker process running
// one remote attempt keeps none.
func (h *History) Append(r TaskRecord) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.records = append(h.records, r)
	h.mu.Unlock()
}

// Records returns all attempts ordered by phase, task id, then attempt.
func (h *History) Records() []TaskRecord {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	out := make([]TaskRecord, len(h.records))
	copy(out, h.records)
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		if out[i].TaskID != out[j].TaskID {
			return out[i].TaskID < out[j].TaskID
		}
		return out[i].Attempt < out[j].Attempt
	})
	return out
}

// Failed returns the attempts that ended in an error (killed attempts are
// not failures).
func (h *History) Failed() []TaskRecord {
	var out []TaskRecord
	for _, r := range h.Records() {
		if r.Err != "" && !r.Killed {
			out = append(out, r)
		}
	}
	return out
}

// Summary renders a compact per-phase digest: attempt counts, failures,
// and the slowest successful task of each phase.
func (h *History) Summary() string {
	var b strings.Builder
	for _, phase := range []Phase{PhaseMap, PhaseReduce} {
		attempts, failures := 0, 0
		var slowest TaskRecord
		for _, r := range h.Records() {
			if r.Phase != phase {
				continue
			}
			attempts++
			if r.Killed {
				continue
			}
			if r.Err != "" {
				failures++
				continue
			}
			if r.Duration > slowest.Duration {
				slowest = r
			}
		}
		if attempts == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s: %d attempts, %d failed; slowest task %d on %s (%v)\n",
			phase, attempts, failures, slowest.TaskID, slowest.Node, slowest.Duration)
	}
	return b.String()
}
