package window_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mrskyline/internal/datagen"
	"mrskyline/internal/skyline"
	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// equalSumWindow builds a dominance-free window of exactly n random
// d-dimensional tuples by normalizing every tuple to the same coordinate
// sum: dominance implies a strictly smaller sum, so equal-sum tuples are
// pairwise incomparable and the window never shrinks or rejects. This
// pins the window size exactly, unlike sampling a skyline.
func equalSumWindow(rng *rand.Rand, n, d int) tuple.List {
	out := make(tuple.List, n)
	for i := range out {
		t := make(tuple.Tuple, d)
		var sum float64
		for k := range t {
			t[k] = 0.1 + rng.Float64()
			sum += t[k]
		}
		for k := range t {
			t[k] *= float64(d) / (2 * sum) // every tuple sums to d/2
		}
		out[i] = t
	}
	return out
}

var benchDims = []int{2, 4, 5, 6, 8, 10}
var benchWindows = []int{16, 64, 256, 1024, 4096}

// BenchmarkInsertTuple measures one window insertion that scans the full
// window — the candidate is dominated only by the last window tuple, so
// both kernels examine all n pairs and leave the window unchanged
// (stable, mutation-free repeated measurement).
func BenchmarkInsertTuple(b *testing.B) {
	for _, d := range benchDims {
		for _, n := range benchWindows {
			rows := equalSumWindow(rand.New(rand.NewSource(int64(d*100000+n))), n, d)
			cand := rows[n-1].Clone()
			for k := range cand {
				cand[k] += 1e-9
			}
			b.Run(fmt.Sprintf("kernel=scalar/d=%d/w=%d", d, n), func(b *testing.B) {
				var c skyline.Count
				for i := 0; i < b.N; i++ {
					rows = skyline.InsertTuple(cand, rows, &c)
				}
				if len(rows) != n {
					b.Fatalf("window drifted to %d tuples", len(rows))
				}
			})
			w := window.FromList(d, rows)
			b.Run(fmt.Sprintf("kernel=columnar/d=%d/w=%d", d, n), func(b *testing.B) {
				var c skyline.Count
				for i := 0; i < b.N; i++ {
					if w.Insert(cand, &c) {
						b.Fatal("candidate entered the window")
					}
				}
				if w.Len() != n {
					b.Fatalf("window drifted to %d tuples", w.Len())
				}
			})
		}
	}
}

// BenchmarkDominance measures the pure membership check over a window no
// tuple of which dominates the probe — the SFS inner loop's worst case,
// scanning all n pairs.
func BenchmarkDominance(b *testing.B) {
	for _, d := range benchDims {
		for _, n := range benchWindows {
			rng := rand.New(rand.NewSource(int64(d*200000 + n)))
			rows := equalSumWindow(rng, n, d)
			probe := equalSumWindow(rng, 1, d)[0]
			b.Run(fmt.Sprintf("kernel=scalar/d=%d/w=%d", d, n), func(b *testing.B) {
				var c skyline.Count
				for i := 0; i < b.N; i++ {
					for _, u := range rows {
						c.Add(1)
						if tuple.Dominates(u, probe) {
							b.Fatal("probe dominated")
						}
					}
				}
			})
			w := window.FromList(d, rows)
			b.Run(fmt.Sprintf("kernel=columnar/d=%d/w=%d", d, n), func(b *testing.B) {
				var c skyline.Count
				for i := 0; i < b.N; i++ {
					if w.Dominated(probe, &c) {
						b.Fatal("probe dominated")
					}
				}
			})
		}
	}
}

// ledgerPartition reproduces one partition of the batch-anti workload
// (anticorrelated 40 000 × 5 at PPD 2, 16 mappers): the score-ordered local
// skylines the mappers send for the cell whose coordinate is 1 on exactly
// the dimensions of cell's set bits.
func ledgerPartition(cell int, sc *window.Scratch) []tuple.List {
	const n, d, mappers = 40000, 5, 16
	runs := make([]tuple.List, mappers)
	for i, t := range datagen.Generate(datagen.AntiCorrelated, n, d, 7) {
		at := 0
		for k, v := range t {
			if v >= 0.5 {
				at |= 1 << k
			}
		}
		if at == cell {
			runs[i*mappers/n] = append(runs[i*mappers/n], t)
		}
	}
	for m, split := range runs {
		w := window.New(d)
		for _, t := range split {
			w.Insert(t, nil)
		}
		w.Order(sc)
		runs[m] = w.Rows()
	}
	return runs
}

// BenchmarkMergeRuns measures a reducer's merge of one of batch-anti's
// larger partitions: 16 runs of 1 435 tuples in all, 643 kept.
func BenchmarkMergeRuns(b *testing.B) {
	var sc window.Scratch
	runs := ledgerPartition(0b01010, &sc)
	var c window.Count
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := window.MergeRuns(5, runs, nil, &sc, &c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.DominanceTests)/float64(b.N), "tests/op")
}

// BenchmarkFilterOn measures Algorithm 5's inner operation on merged
// partitions of the same workload: w filtered by a partition of its
// anti-dominating region on the |E| dimensions where their cells coincide —
// 584 by 643 tuples for |E| = 4, and for |E| = 2, where the grid leaves no
// large pair, 215 by 238. Rebuilding w from its rows is part of every
// iteration (FilterOn consumes it) and a few percent of one.
func BenchmarkFilterOn(b *testing.B) {
	var sc window.Scratch
	for _, pair := range []struct {
		w, by int
		dims  []int
	}{
		{0b01111, 0b01000, []int{3, 4}},
		{0b11010, 0b01010, []int{0, 1, 2, 3}},
	} {
		w, err := window.MergeRuns(5, ledgerPartition(pair.w, &sc), nil, &sc, nil)
		if err != nil {
			b.Fatal(err)
		}
		by, err := window.MergeRuns(5, ledgerPartition(pair.by, &sc), nil, &sc, nil)
		if err != nil {
			b.Fatal(err)
		}
		rows := w.Rows()
		b.Run(fmt.Sprintf("E=%d/w=%d/by=%d", len(pair.dims), len(rows), by.Len()), func(b *testing.B) {
			var c window.Count
			for i := 0; i < b.N; i++ {
				window.FromList(5, rows).FilterOn(by, pair.dims, &sc, &c)
			}
			b.ReportMetric(float64(c.DominanceTests)/float64(b.N), "tests/op")
		})
	}
}
