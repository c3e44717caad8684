package baseline

import (
	"testing"

	"mrskyline/internal/datagen"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// TestTaskPublishesKernelMetrics drives MR-BNL's two tasks by hand: each
// publishes exactly the dominance tests it counted and times one in
// window.InsertSampleEvery of the Inserts it makes.
func TestTaskPublishesKernelMetrics(t *testing.T) {
	const d = 3
	data := datagen.Generate(datagen.AntiCorrelated, 1000, d, 3)
	rows := make([][]float64, len(data))
	for i, t := range data {
		rows[i] = t
	}

	// check runs task as one attempt under a metrics-only tracer.
	check := func(what string, inserts int, task func(ctx *mapreduce.TaskContext) error) {
		t.Helper()
		tr := obs.NewMetricsOnly()
		ctx := &mapreduce.TaskContext{Counters: mapreduce.NewCounters(), Trace: tr, Track: "node0/s0"}
		if err := task(ctx); err != nil {
			t.Fatal(err)
		}
		counted, published := ctx.Counters.Get(mapreduce.CounterDominanceTests), tr.Metrics().Counter(window.MetricDominanceTests)
		if counted == 0 || published != counted {
			t.Errorf("%s: published %d dominance tests, counted %d", what, published, counted)
		}
		var samples int64
		for _, h := range tr.Metrics().Snapshot().Histograms {
			if h.Name == window.MetricInsertNs {
				samples = h.Count
			}
		}
		if want := int64((inserts + window.InsertSampleEvery - 1) / window.InsertSampleEvery); samples != want {
			t.Errorf("%s: %d sampled inserts over %d inserts, want %d", what, samples, inserts, want)
		}
	}

	funcs := halfspaceFuncs(d, []float64{0.5, 0.5, 0.5})
	var keys, values [][]byte
	check("mapper", len(data), func(ctx *mapreduce.TaskContext) error {
		m := funcs.NewMapper()
		if err := m.(mapreduce.RowsMapper).MapRows(ctx, rows, nil); err != nil {
			return err
		}
		return m.Flush(ctx, func(k, v []byte) {
			keys = append(keys, append([]byte(nil), k...))
			values = append(values, append([]byte(nil), v...))
		})
	})
	reduceInserts := 0
	for _, v := range values {
		l, _, err := tuple.DecodeList(v)
		if err != nil {
			t.Fatal(err)
		}
		reduceInserts += len(l)
	}
	check("reducer", reduceInserts, func(ctx *mapreduce.TaskContext) error {
		r := funcs.NewReducer()
		for i, k := range keys {
			if err := r.Reduce(ctx, k, values[i:i+1], nil); err != nil {
				return err
			}
		}
		return r.Flush(ctx, func(_, _ []byte) {})
	})
}
