package core_test

import (
	"testing"

	"mrskyline/internal/core"
	"mrskyline/internal/datagen"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/tuple"
)

// BenchmarkPPDSelectJob times the Section 3.3 job alone — candidate ladder,
// 16 map tasks folding their splits, one reducer choosing and pruning — on
// the shape of the benchmark's batch-indep workload: independent
// 150 000 × 3 on the default 8 × 2 cluster. The input is encoded once,
// outside the timer, as a Compute run encodes it.
func BenchmarkPPDSelectJob(b *testing.B) {
	const card, d = 150_000, 3
	cfg := testConfig(b, 8, 2)
	input := mapreduce.TupleInput(datagen.Generate(datagen.Independent, card, d, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.ChoosePPDAndBitstring(&cfg, d, card, input, false)
		if err != nil {
			b.Fatal(err)
		}
		if res.PPD < 2 {
			b.Fatalf("chose PPD %d", res.PPD)
		}
	}
}

// benchGrid times one run of a grid algorithm per iteration on the default
// 8 × 2 cluster and reports the run's exact dominance-test count beside it.
func benchGrid(b *testing.B, run func(core.Config, tuple.List) (tuple.List, *core.Stats, error), dist datagen.Distribution, card, d int) {
	cfg := testConfig(b, 8, 2)
	data := datagen.Generate(dist, card, d, 3)
	var tests int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sky, st, err := run(cfg, data)
		if err != nil {
			b.Fatal(err)
		}
		if len(sky) == 0 {
			b.Fatal("empty skyline")
		}
		tests = st.DominanceTests
	}
	b.ReportMetric(float64(tests), "tests/op")
}

// BenchmarkGPMRSAnti is the benchmark's batch-anti operation inside the
// package: anticorrelated 40 000 × 5, where the window kernel is most of the
// run and Algorithm 5 most of the kernel.
func BenchmarkGPMRSAnti(b *testing.B) { benchGrid(b, core.GPMRS, datagen.AntiCorrelated, 40_000, 5) }

// BenchmarkGPMRSIndepSmall is the small-window guard: independent
// 20 000 × 4, the serve-query dataset shape, where every window holds a
// handful of tuples and per-window fixed cost is what shows.
func BenchmarkGPMRSIndepSmall(b *testing.B) {
	benchGrid(b, core.GPMRS, datagen.Independent, 20_000, 4)
}

// BenchmarkGPSRSIndepSmall is MR-GPSRS, the skyline job with one bucket, on
// the same shape: the algorithm a serve-query inline request runs.
func BenchmarkGPSRSIndepSmall(b *testing.B) {
	benchGrid(b, core.GPSRS, datagen.Independent, 20_000, 4)
}
