package mrskyline_test

import (
	"context"
	"runtime"
	"testing"

	mrskyline "mrskyline"
)

// TestAllocationCeilings bounds what two operations allocate, in bytes and
// in objects per operation: BenchmarkComputeAnti's Compute (anticorrelated
// 40 000 × 5, seed 7, default Options), and a Dataset.Compute on a kept
// plan over BenchmarkServiceSession's independent 20 000 × 4 dataset. An
// allocation the skyline job stops recycling, or a working set a kept plan
// starts rebuilding, fails it. Counts move by a little between runs — the
// engine's goroutines interleave differently — so each ceiling is the
// figure measured when it was set, at GOMAXPROCS 1 as here, plus the slack
// in its row. The race detector's instrumentation allocates, so -race
// skips it.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	anti, err := mrskyline.Generate("anticorrelated", 40000, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	indep, err := mrskyline.Generate("independent", 20000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := mrskyline.NewService(mrskyline.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ds := svc.Dataset(indep)
	for _, c := range []struct {
		name string
		op   func() error
		// measured per operation when the ceiling was set, and the slack
		// on top of both, as a fraction
		bytes, allocs, slack float64
	}{
		{"Compute anticorrelated 40000x5", func() error {
			_, err := mrskyline.Compute(anti, mrskyline.Options{})
			return err
		}, 14.09e6, 4765, 0.10},
		{"kept-plan Dataset.Compute independent 20000x4", func() error {
			_, err := ds.Compute(context.Background(), mrskyline.Options{})
			return err
		}, 1.255e6, 3028, 0.10},
	} {
		if err := c.op(); err != nil { // warm-up: ds keeps its plan from here
			t.Fatal(err)
		}
		const runs = 3
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := c.op(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		t.Logf("%s: %.0f B/op, %.0f allocs/op", c.name, bytes, allocs)
		if bytes > c.bytes*(1+c.slack) || allocs > c.allocs*(1+c.slack) {
			t.Errorf("%s: %.0f B/op and %.0f allocs/op; the ceiling is %.0f B and %.0f allocs (+%.0f %%)",
				c.name, bytes, allocs, c.bytes, c.allocs, 100*c.slack)
		}
	}
}
