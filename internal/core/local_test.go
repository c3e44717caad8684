package core

import (
	"strings"
	"testing"

	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/tuple"
)

// TestUnorderedRunFailsTheTask: reducers merge the mappers' runs on the
// strength of their order, so a run that arrives out of it — whether by
// score or only by the coordinate tie-break — is a task error naming the
// partition, never a merged window that may hold a dominated tuple.
func TestUnorderedRunFailsTheTask(t *testing.T) {
	g, err := grid.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sorted := tuple.List{{0.1, 0.4}, {0.4, 0.2}}
	for name, run := range map[string]tuple.List{
		"by score":       {{0.4, 0.4}, {0.1, 0.1}},
		"by coordinates": {{0.25, 2e-20}, {0.25, 1e-20}},
	} {
		pw := partWindows{g: g, s: make(winMap)}
		err := pw.mergeRuns(0, []tuple.List{sorted, run})
		if err == nil || !strings.Contains(err.Error(), "partition 0 run out of score order") {
			t.Errorf("%s: mergeRuns error = %v", name, err)
		}
		if len(pw.s) != 0 {
			t.Errorf("%s: a window was kept for the failed partition", name)
		}

		// The same through the MR-GPSRS reducer, as the engine would call it.
		ctx := &mapreduce.TaskContext{NumMappers: 2, NumReducers: 1, Counters: mapreduce.NewCounters(), Trace: obs.NewMetricsOnly()}
		values := [][]byte{tuple.EncodeList(sorted), tuple.EncodeList(run)}
		err = newGPSRSReducer(g).Reduce(ctx, encodeKey(0), values, func(_, _ []byte) {})
		if err == nil || !strings.Contains(err.Error(), "run out of score order") {
			t.Errorf("%s: reducer error = %v", name, err)
		}
	}
	pw := partWindows{g: g, s: make(winMap)}
	if err := pw.mergeRuns(0, []tuple.List{sorted, sorted}); err != nil {
		t.Fatalf("sorted runs rejected: %v", err)
	}
	if got := pw.s[0].Rows(); len(got) != 4 {
		t.Errorf("merged %v, want both copies of both tuples", got)
	}
	if err := pw.mergeRuns(0, []tuple.List{sorted}); err == nil {
		t.Error("a partition was merged twice")
	}
}
