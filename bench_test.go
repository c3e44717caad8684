package mrskyline_test

// One benchmark per table and figure of the paper's evaluation (Section 7),
// plus one per ablation called out in DESIGN.md. Each benchmark iteration
// regenerates the complete figure at a small scale; run
//
//	go test -bench=Fig -benchtime=1x
//
// for a single full sweep per figure, or cmd/skybench for the full-size
// tables with printed rows.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	mrskyline "mrskyline"
	"mrskyline/internal/datagen"
	"mrskyline/internal/experiments"
)

// benchSetup keeps per-iteration work small while preserving every sweep
// point of the figure being regenerated. MeasureParallelism is left at its
// default (min(GOMAXPROCS, cluster slots)): simulated runtimes are a pure
// function of measured task durations, so parallel measurement only speeds
// the sweep; pass MeasureParallelism: 1 for publication-grade isolation.
func benchSetup() experiments.Setup {
	return experiments.Setup{Seed: 1, Scale: 0.001, Nodes: 13, SlotsPerNode: 2}
}

func benchFigure(b *testing.B, name string) {
	b.Helper()
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure(name, s)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

// BenchmarkFig7 regenerates Figure 7 (a–d): runtime vs dimensionality on
// independent data at both cardinalities, all four algorithms.
func BenchmarkFig7(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (a–d): runtime vs dimensionality on
// anti-correlated data at both cardinalities, all four algorithms.
func BenchmarkFig8(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (a–d): runtime vs cardinality at
// d ∈ {3, 8} on both distributions, all four algorithms.
func BenchmarkFig9(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10: MR-GPMRS runtime vs reducer count
// (1 = MR-GPSRS) on 8-dimensional data, both distributions.
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (a, b): measured vs estimated
// partition-wise comparisons for the busiest mapper and reducer.
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11") }

// BenchmarkAblationMerging contrasts the Section 5.4.1 group-merging
// strategies (computation-cost vs communication-cost).
func BenchmarkAblationMerging(b *testing.B) { benchFigure(b, "ablation-merge") }

// BenchmarkAblationPruning measures what the Equation 2 bitstring pruning
// buys (runtime and shuffle volume with pruning on vs off).
func BenchmarkAblationPruning(b *testing.B) { benchFigure(b, "ablation-prune") }

// BenchmarkAblationPPD sweeps fixed PPD values against the Section 3.3
// heuristic.
func BenchmarkAblationPPD(b *testing.B) { benchFigure(b, "ablation-ppd") }

// BenchmarkAblationHybrid compares the future-work Hybrid against fixed
// algorithm choices across the regimes where each base algorithm wins.
func BenchmarkAblationHybrid(b *testing.B) { benchFigure(b, "ablation-hybrid") }

// BenchmarkAlgorithm benchmarks each algorithm end-to-end on a fixed
// workload per distribution — the per-point cost underlying the figures.
func BenchmarkAlgorithm(b *testing.B) {
	const card, dim = 5000, 4
	for _, dist := range []datagen.Distribution{datagen.Independent, datagen.AntiCorrelated} {
		data := datagen.Generate(dist, card, dim, 1)
		for _, algo := range experiments.AllAlgorithms() {
			b.Run(fmt.Sprintf("%s/%v", algo, dist), func(b *testing.B) {
				s := benchSetup()
				for i := 0; i < b.N; i++ {
					if _, err := experiments.RunAlgorithm(algo, s, data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExtensionScaleOut measures MR-GPMRS's simulated runtime as the
// cluster grows at a fixed workload (not a paper figure).
func BenchmarkExtensionScaleOut(b *testing.B) { benchFigure(b, "extension-scaleout") }

// benchCompute times one package-level Compute over a generated dataset,
// with default Options: the operation of the benchmark harness's batch
// workloads (seed 7), without its CSV round trip. Run with -benchmem and
// -cpu 1 (the harness's batch runs leave one core free): bytes per op is
// what the harness's rss_mb follows, and ns/op settles what its
// throughput cannot resolve. tests/op is the run's exact DominanceTests.
func benchCompute(b *testing.B, dist string, card, dim int) {
	data, err := mrskyline.Generate(dist, card, dim, 7)
	if err != nil {
		b.Fatal(err)
	}
	var tests int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mrskyline.Compute(data, mrskyline.Options{})
		if err != nil {
			b.Fatal(err)
		}
		tests = res.Stats.DominanceTests
	}
	b.ReportMetric(float64(tests), "tests/op")
}

// BenchmarkComputeIndep is batch-indep's operation: independent
// 150 000 × 3, where the input pass and job 1 outweigh the skyline.
func BenchmarkComputeIndep(b *testing.B) { benchCompute(b, "independent", 150000, 3) }

// BenchmarkComputeAnti is batch-anti's operation: anticorrelated
// 40 000 × 5, where the dominance kernel leads.
func BenchmarkComputeAnti(b *testing.B) { benchCompute(b, "anticorrelated", 40000, 5) }

// BenchmarkServiceSession is the in-package reading of the benchmark
// harness's serve-query workload, without HTTP: one iteration is two
// concurrent sessions against one Service, each the harness's four requests
// at the harness's sizes — the skyline of a registered 20 000 × 4 dataset, a
// narrow constrained query over a registered 200 000 × 4 catalog, a
// two-dimensional subspace of a registered anti-correlated 5 000 × 4, and
// MR-GPSRS over 2 000 inline rows. Run with -benchmem: bytes per op is what
// the harness's rss_mb follows, and ns/op is free of the harness's
// GC-attribution artefacts (ROADMAP, "Reading the instrument").
func BenchmarkServiceSession(b *testing.B) {
	svc, err := mrskyline.NewService(mrskyline.ServiceConfig{})
	if err != nil {
		b.Fatal(err)
	}
	gen := func(dist string, card int, seed int64) [][]float64 {
		rows, err := mrskyline.Generate(dist, card, 4, seed)
		if err != nil {
			b.Fatal(err)
		}
		return rows
	}
	indep := svc.Dataset(gen("independent", 20000, 1))
	catalog := svc.Dataset(gen("independent", 200000, 2))
	anti := svc.Dataset(gen("anticorrelated", 5000, 3))
	inline := gen("independent", 2000, 10)
	box := []mrskyline.Range{{Min: 0.2, Max: 0.3}, {Min: 0.5, Max: math.Inf(1)}, mrskyline.Unbounded(), mrskyline.Unbounded()}
	ctx := context.Background()
	session := func() error {
		if _, err := indep.Compute(ctx, mrskyline.Options{}); err != nil {
			return err
		}
		if _, err := catalog.ComputeConstrained(ctx, box, mrskyline.Options{}); err != nil {
			return err
		}
		if _, err := anti.ComputeSubspace(ctx, []int{0, 3}, mrskyline.Options{}); err != nil {
			return err
		}
		_, err := svc.Compute(ctx, inline, mrskyline.Options{Algorithm: mrskyline.GPSRS})
		return err
	}
	// The harness warms the daemon up before it measures; so does this.
	if err := session(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := session(); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}
