package window

import (
	"time"

	"mrskyline/internal/obs"
	"mrskyline/internal/tuple"
)

// Metric names the tasks that own windows publish. Windows themselves
// publish nothing: the kernel's hot loop takes no lock and reads no clock.
const (
	// MetricDominanceTests is the obs counter of pair classifications. A
	// task adds its whole Count to it once, when it flushes.
	MetricDominanceTests = "algo.dominance.tests"
	// MetricInsertNs is the obs histogram of Insert latencies, sampled one
	// call in InsertSampleEvery (see InsertSampler). Only tasks that build
	// windows by streaming Insert have any: the grid algorithms' mappers and
	// the baselines. Their reducers merge sorted runs (MergeRuns) and are
	// covered by algo.merge.ns instead.
	MetricInsertNs = "algo.insert.ns"
)

// InsertSampleEvery is the sampling period of MetricInsertNs: a task times
// its 1st, 65th, 129th… Insert. The histogram keeps its meaning (wall
// nanoseconds of one Insert) at 1/64 of the clock reads and registry
// acquisitions, which at one per call cost more than the Insert they
// measured.
const InsertSampleEvery = 64

// InsertSampler is one task's Insert loop: it forwards to Window.Insert and
// observes the duration of every InsertSampleEvery-th call in reg's
// MetricInsertNs. The zero value is ready; a task owns one sampler across
// all its windows and uses it from its own goroutine only. With a nil
// registry it is Window.Insert.
type InsertSampler struct{ n uint }

// Insert is w.Insert(t, c), timed when the call is a sample.
func (s *InsertSampler) Insert(reg *obs.Registry, w *Window, t tuple.Tuple, c *Count) bool {
	if reg == nil {
		return w.Insert(t, c)
	}
	s.n++
	if s.n%InsertSampleEvery != 1 {
		return w.Insert(t, c)
	}
	t0 := time.Now()
	inserted := w.Insert(t, c)
	reg.Observe(MetricInsertNs, int64(time.Since(t0)))
	return inserted
}
