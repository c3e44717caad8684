package core

import (
	"testing"

	"mrskyline/internal/bitstring"
	"mrskyline/internal/datagen"
	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/skyline/window"
)

// taskMetrics runs body as one task attempt under a metrics-only tracer and
// returns what the task left behind: its dominance-test job counter, the
// registry's dominance-test counter, and the number of Insert latencies it
// sampled.
func taskMetrics(t *testing.T, cache mapreduce.Cache, body func(ctx *mapreduce.TaskContext) error) (counted, published, samples int64) {
	t.Helper()
	tr := obs.NewMetricsOnly()
	ctx := &mapreduce.TaskContext{
		NumMappers: 1, NumReducers: 2, Cache: cache,
		Counters: mapreduce.NewCounters(), Trace: tr, Track: "node0/s0",
	}
	if err := body(ctx); err != nil {
		t.Fatal(err)
	}
	for _, h := range tr.Metrics().Snapshot().Histograms {
		if h.Name == window.MetricInsertNs {
			samples = h.Count
		}
	}
	return ctx.Counters.Get(mapreduce.CounterDominanceTests), tr.Metrics().Counter(window.MetricDominanceTests), samples
}

// sampledInserts is the number of latencies a task that made n Inserts
// observes.
func sampledInserts(n int) int64 {
	return int64((n + window.InsertSampleEvery - 1) / window.InsertSampleEvery)
}

// TestTaskPublishesKernelMetrics drives the skyline job's mapper and
// reducer by hand, with MR-GPSRS's one-bucket spec and MR-GPMRS's: each
// task publishes exactly the dominance tests it counted, once, and times
// one in window.InsertSampleEvery of the Inserts it makes. Only
// mappers make any: reducers merge sorted runs with a membership check, so
// they leave no Insert latency behind.
func TestTaskPublishesKernelMetrics(t *testing.T) {
	const d = 3
	g, err := grid.New(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	bs := bitstring.New(g.NumPartitions())
	for i := 0; i < bs.Len(); i++ {
		bs.Set(i) // nothing pruned: every record reaches a window
	}
	cache := mapreduce.Cache{cacheKeyBitstring: bs.Encode()}
	data := datagen.Generate(datagen.AntiCorrelated, 1000, d, 3)
	rows := make([][]float64, len(data))
	for i, t := range data {
		rows[i] = t
	}

	type emitted struct{ key, value []byte }
	for name, funcs := range map[string]*mapreduce.JobFuncs{
		"gpsrs": skyFuncs(skySpec{Buckets: gpsrsBuckets(bs)}, g),
		"gpmrs": skyFuncs(skySpec{Buckets: gpmrsBuckets(g.IndependentGroups(bs), 2, grid.MergeByComputation)}, g),
	} {
		var out []emitted
		counted, published, samples := taskMetrics(t, cache, func(ctx *mapreduce.TaskContext) error {
			m := funcs.NewMapper().(mapreduce.RowsMapper)
			if err := m.MapRows(ctx, rows, nil); err != nil {
				return err
			}
			return m.Flush(ctx, func(k, v []byte) {
				out = append(out, emitted{append([]byte(nil), k...), append([]byte(nil), v...)})
			})
		})
		if counted == 0 || published != counted {
			t.Errorf("%s mapper: published %d dominance tests, counted %d", name, published, counted)
		}
		if want := sampledInserts(len(data)); samples != want {
			t.Errorf("%s mapper: %d sampled inserts over %d records, want %d", name, samples, len(data), want)
		}

		// Reducers: one task per bucket key; MR-GPSRS has one bucket.
		tasks := map[string][]emitted{}
		for _, e := range out {
			tasks[string(e.key)] = append(tasks[string(e.key)], e)
		}
		if name == "gpsrs" && len(tasks) != 1 {
			t.Errorf("gpsrs: %d bucket keys, want 1", len(tasks))
		}
		for _, in := range tasks {
			counted, published, samples := taskMetrics(t, cache, func(ctx *mapreduce.TaskContext) error {
				r := funcs.NewReducer()
				for _, e := range in {
					if err := r.Reduce(ctx, e.key, [][]byte{e.value}, func(_, _ []byte) {}); err != nil {
						return err
					}
				}
				return r.Flush(ctx, func(_, _ []byte) {})
			})
			if counted == 0 || published != counted {
				t.Errorf("%s reducer: published %d dominance tests, counted %d", name, published, counted)
			}
			if samples != 0 {
				t.Errorf("%s reducer: %d sampled inserts, want none", name, samples)
			}
		}
	}
}
