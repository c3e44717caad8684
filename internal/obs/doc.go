// Package obs is the repository's zero-dependency observability layer:
// hierarchical spans plus a metrics registry, exportable as Chrome
// trace-event JSON (chrome://tracing, ui.perfetto.dev) and as a compact
// text flamegraph.
//
// # Span model
//
// A Span is a named interval on a Track. Tracks model the hardware the
// MapReduce substrate simulates: one track per cluster task slot
// ("node3/s1", see cluster.SlotTrack) plus a "driver" track for
// job-level work (job and phase spans, shuffle fetches, driver-side
// algorithm phases). Spans on one track must nest or be disjoint — the
// invariant ValidateChromeTraceJSON enforces — which the engine
// guarantees by construction: a slot runs one attempt at a time, and the
// driver's phases are sequential.
//
// # Two clocks
//
// Span timestamps are offsets (time.Duration) from the tracer's epoch,
// on one of two clocks:
//
//   - Wall clock: Start/StartAt helpers stamp spans with time.Since the
//     tracer's creation. Used for real concurrent runs.
//   - Virtual clock: fault-schedule runs (mapreduce.FaultPlan) compute
//     span boundaries on their deterministic event clock and record them
//     with explicit offsets via Record. VirtualBase/AdvanceVirtualBase
//     serialize consecutive virtual jobs onto one timeline so their
//     spans never collide.
//
// A tracer never mixes clocks: the engine emits wall spans only on the
// concurrent path and virtual spans only on the fault-schedule path, so
// a FaultPlan run's trace is bit-for-bit reproducible from its seed.
//
// # Span retention
//
// A New tracer keeps every span until it is dropped, which is what a run
// that ends by writing its trace wants (skybench/skyreport -trace, a
// Job.Trace, rpcexec's Config.TraceDir). Nothing that lives as long as the
// process it observes may hold one: mrskyline.Service runs on
// NewMetricsOnly, which records histograms and counters and discards
// spans at the call, so its memory does not grow with requests served.
// Re-enabling spans in a daemon needs a bound first (a ring of the N
// slowest requests, say), never an unbounded log.
//
// # Pay-for-use
//
// Every method is safe on a nil *Tracer and nil *Registry and returns
// immediately, so instrumented code calls straight through without
// guarding call sites; a disabled (nil) tracer costs a few nanoseconds
// per call site, verified against BenchmarkShuffle in internal/mapreduce.
package obs
