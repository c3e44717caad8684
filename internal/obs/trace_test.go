package obs

import (
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Now() != 0 {
		t.Fatal("nil tracer Now != 0")
	}
	ref := tr.Start("driver", "x", CatJob)
	ref.End()
	ref.EndWith(Arg{Key: "k", Value: "v"})
	tr.Record(Span{Track: "driver", Name: "y"})
	tr.AdvanceVirtualBase(time.Hour)
	if tr.VirtualBase() != 0 {
		t.Fatal("nil tracer VirtualBase != 0")
	}
	if tr.Metrics() != nil {
		t.Fatal("nil tracer Metrics != nil")
	}
	tr.Metrics().Count("c", 1)
	tr.Metrics().Observe("h", 1)
	tr.Metrics().Gauge("g", 1)
	if got := tr.Metrics().Snapshot(); len(got.Counters)+len(got.Gauges)+len(got.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", got)
	}
	if tr.Spans() != nil {
		t.Fatal("nil tracer Spans != nil")
	}
	if FlameSummary(tr) != "" {
		t.Fatal("nil tracer FlameSummary not empty")
	}
}

func TestWallSpans(t *testing.T) {
	tr := New()
	ref := tr.Start(DriverTrack, "outer", CatJob, Arg{Key: "job", Value: "wc"})
	inner := tr.Start(DriverTrack, "inner", CatPhase)
	time.Sleep(time.Millisecond)
	inner.End()
	ref.EndWith(Arg{Key: "state", Value: "ok"})
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Sorted: outer first (starts earlier, and at equal starts the longer
	// span wins).
	outer, in := spans[0], spans[1]
	if outer.Name != "outer" || in.Name != "inner" {
		t.Fatalf("order: %q, %q", outer.Name, in.Name)
	}
	if in.Start < outer.Start || in.End > outer.End {
		t.Fatalf("inner [%v,%v) not nested in outer [%v,%v)", in.Start, in.End, outer.Start, outer.End)
	}
	if in.End-in.Start < time.Millisecond {
		t.Fatalf("inner too short: %v", in.End-in.Start)
	}
	if len(outer.Args) != 2 || outer.Args[0].Key != "job" || outer.Args[1].Key != "state" {
		t.Fatalf("outer args: %+v", outer.Args)
	}
}

func TestRecordClampsBackwardsSpan(t *testing.T) {
	tr := New()
	tr.Record(Span{Track: "driver", Name: "x", Start: 5 * time.Second, End: 3 * time.Second})
	s := tr.Spans()[0]
	if s.End != s.Start {
		t.Fatalf("backwards span not clamped: [%v,%v)", s.Start, s.End)
	}
}

func TestVirtualBase(t *testing.T) {
	tr := New()
	if tr.VirtualBase() != 0 {
		t.Fatal("fresh tracer has nonzero virtual base")
	}
	tr.AdvanceVirtualBase(10 * time.Second)
	tr.AdvanceVirtualBase(4 * time.Second) // smaller: ignored
	if got := tr.VirtualBase(); got != 10*time.Second {
		t.Fatalf("virtual base = %v, want 10s", got)
	}
}

func TestSpansSortedByTrackThenStart(t *testing.T) {
	tr := New()
	tr.Record(Span{Track: "node1/s0", Name: "b", Start: 2, End: 3})
	tr.Record(Span{Track: "driver", Name: "a", Start: 5, End: 9})
	tr.Record(Span{Track: "node1/s0", Name: "c", Start: 1, End: 4})
	got := tr.Spans()
	want := []string{"a", "c", "b"}
	for i, s := range got {
		if s.Name != want[i] {
			t.Fatalf("span %d = %q, want %q (full: %+v)", i, s.Name, want[i], got)
		}
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ref := tr.Start("t", "s", CatTask)
				tr.Metrics().Count("n", 1)
				tr.Metrics().Observe("h", int64(i))
				ref.End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 800 {
		t.Fatalf("got %d spans, want 800", got)
	}
	snap := tr.Metrics().Snapshot()
	if snap.Counters[0].Value != 800 {
		t.Fatalf("counter = %d, want 800", snap.Counters[0].Value)
	}
	if snap.Histograms[0].Count != 800 {
		t.Fatalf("histogram count = %d, want 800", snap.Histograms[0].Count)
	}
}

// TestMetricsOnlyTracerKeepsNoSpans: every way of recording a span is
// discarded, from any number of goroutines, while the tracer stays enabled
// and its metrics side — Timed's histogram included — works as on New.
func TestMetricsOnlyTracerKeepsNoSpans(t *testing.T) {
	tr := NewMetricsOnly()
	if !tr.Enabled() || tr.Metrics() == nil {
		t.Fatal("metrics-only tracer is disabled")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Record(Span{Track: "driver", Name: "job", End: time.Second})
				tr.Start("driver", "phase", CatPhase).EndWith(Arg{Key: "k", Value: "v"})
				tr.Timed("node0/s0", "merge", CatAlgo, "algo.merge.ns")()
				tr.Metrics().Count("c", 1)
			}
		}()
	}
	wg.Wait()
	if n := len(tr.Spans()); n != 0 {
		t.Errorf("metrics-only tracer retains %d spans", n)
	}
	if tr.Now() <= 0 {
		t.Error("metrics-only tracer has no clock")
	}
	snap := tr.Metrics().Snapshot()
	if len(snap.Histograms) != 1 || snap.Histograms[0].Name != "algo.merge.ns" || snap.Histograms[0].Count != 400 {
		t.Errorf("Timed histogram = %+v, want 400 algo.merge.ns samples", snap.Histograms)
	}
	if tr.Metrics().Counter("c") != 400 {
		t.Errorf("counter = %d, want 400", tr.Metrics().Counter("c"))
	}
}
