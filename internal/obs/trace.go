package obs

import (
	"sort"
	"sync"
	"time"
)

// DriverTrack is the track for driver-side work: job and phase spans,
// shuffle fetches, and driver-side algorithm phases.
const DriverTrack = "driver"

// Span categories used by the engine's instrumentation. Free-form strings
// are legal; these are the ones the substrate emits.
const (
	CatJob     = "job"     // one whole MapReduce job
	CatPhase   = "phase"   // map / shuffle / reduce phase of a job
	CatSlot    = "slot"    // slot occupancy: acquire → release
	CatTask    = "task"    // one task attempt's body
	CatShuffle = "shuffle" // one reducer's shuffle fetch
	CatAlgo    = "algo"    // algorithm phase (grid build, local skyline, merge)
	CatQueue   = "queue"   // admission-controller wait: submit → admitted/rejected
)

// Arg is one key-value annotation on a span. Values are strings so span
// serialization is deterministic (no float formatting surprises).
type Arg struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one named interval on a track. Start and End are offsets from
// the tracer's epoch on the active clock (wall or virtual; see the
// package comment).
type Span struct {
	Track string
	Name  string
	Cat   string
	Start time.Duration
	End   time.Duration
	Args  []Arg
}

// Tracer records spans and metrics. The zero value is not usable; create
// with New. A nil *Tracer is the disabled tracer: every method returns
// immediately, so instrumentation sites need no guards.
//
// Tracer is safe for concurrent use.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	vbase time.Duration
	// reg and noSpans (a metrics-only tracer, NewMetricsOnly) never change
	// after construction, so Metrics and Record read them unlocked.
	reg     *Registry
	noSpans bool
}

// New creates an enabled tracer whose wall epoch is the moment of the
// call. It retains every span recorded until the process drops it: right
// for a bounded run that ends by exporting the trace, wrong for anything
// long-lived (see NewMetricsOnly).
func New() *Tracer {
	return &Tracer{epoch: time.Now(), reg: NewRegistry()}
}

// NewMetricsOnly creates a tracer that keeps metrics and no spans: Enabled,
// Now, Metrics and the histogram side of Timed behave as on a New tracer,
// while Start hands out inert SpanRefs and Record returns without storing
// anything or taking the lock, so Spans stays empty. A
// process that serves requests indefinitely uses this — a span log grows
// with every job, phase, slot and task served and is never read back.
func NewMetricsOnly() *Tracer {
	return &Tracer{epoch: time.Now(), reg: NewRegistry(), noSpans: true}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the wall-clock offset from the tracer's epoch (zero when
// disabled).
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// Metrics returns the tracer's metrics registry (nil when disabled; all
// Registry methods are nil-safe, so the chain tr.Metrics().Observe(...)
// needs no guard).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Record stores a span with explicit timestamps — the entry point for
// virtual-clock instrumentation. Spans with End < Start are clamped to
// zero duration.
func (t *Tracer) Record(s Span) {
	if t == nil || t.noSpans {
		return
	}
	if s.End < s.Start {
		s.End = s.Start
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// SpanRef is an in-flight wall-clock span started by Start; End (or
// EndWith) records it. The zero SpanRef is a no-op.
type SpanRef struct {
	t     *Tracer
	track string
	name  string
	cat   string
	start time.Duration
	args  []Arg
}

// Start opens a wall-clock span now. The returned SpanRef must be ended
// exactly once; a SpanRef from a nil tracer is inert.
func (t *Tracer) Start(track, name, cat string, args ...Arg) SpanRef {
	if t == nil || t.noSpans {
		return SpanRef{}
	}
	return SpanRef{t: t, track: track, name: name, cat: cat, start: t.Now(), args: args}
}

// End records the span, closing it now.
func (r SpanRef) End() { r.EndWith() }

// EndWith records the span with extra args appended.
func (r SpanRef) EndWith(args ...Arg) {
	if r.t == nil {
		return
	}
	r.t.Record(Span{
		Track: r.track, Name: r.name, Cat: r.cat,
		Start: r.start, End: r.t.Now(),
		Args: append(r.args, args...),
	})
}

// Timed opens a wall-clock span and returns a closer that ends it and
// records the elapsed time in the named histogram — the one-liner for
// bracketing an algorithm phase:
//
//	defer tr.Timed(track, "merge", CatAlgo, "algo.merge.ns")()
//
// On a nil tracer the returned closer is free.
func (t *Tracer) Timed(track, name, cat, metric string) func() {
	if t == nil {
		return func() {}
	}
	sp := t.Start(track, name, cat)
	t0 := time.Now()
	return func() {
		t.Metrics().Observe(metric, int64(time.Since(t0)))
		sp.End()
	}
}

// VirtualBase returns the current virtual-clock base offset. A
// fault-schedule job records every span at base+t for its local virtual
// time t, then advances the base past its makespan, so consecutive
// virtual jobs occupy disjoint windows of one timeline.
func (t *Tracer) VirtualBase() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.vbase
}

// AdvanceVirtualBase raises the virtual base to at least end (absolute,
// i.e. already including the previous base). Smaller values are ignored.
func (t *Tracer) AdvanceVirtualBase(end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if end > t.vbase {
		t.vbase = end
	}
	t.mu.Unlock()
}

// Spans returns a copy of all recorded spans ordered by track, then
// start time, then descending duration (so a parent sorts before the
// children it contains), then name.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		di, dj := out[i].End-out[i].Start, out[j].End-out[j].Start
		if di != dj {
			return di > dj
		}
		return out[i].Name < out[j].Name
	})
	return out
}
