package core_test

import (
	"testing"

	"mrskyline/internal/core"
	"mrskyline/internal/datagen"
	"mrskyline/internal/mapreduce"
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
