package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mrskyline/internal/bitstring"
	"mrskyline/internal/datagen"
	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/skyline"
	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// reduceBucket runs the skyline job's reducer on bucket b, as the engine
// would call it, and returns the column lists it emitted (concatenated, in
// emission order), its partCmp maximum and its dominance tests.
func reduceBucket(g *grid.Grid, s skySpec, bs *bitstring.Bitstring, r, b int, values [][]byte) ([]byte, int64, int64, error) {
	ctx := &mapreduce.TaskContext{
		NumMappers: len(values), NumReducers: r, Counters: mapreduce.NewCounters(), Trace: obs.NewMetricsOnly(),
		Cache: mapreduce.Cache{cacheKeyBitstring: bs.Encode()},
	}
	var out []byte
	emit := func(_, v []byte) { out = append(out, v...) }
	red := skyFuncs(s, g).NewReducer()
	if err := red.Reduce(ctx, mapreduce.IntKey(b), values, emit); err != nil {
		return nil, 0, 0, err
	}
	if err := red.Flush(ctx, emit); err != nil {
		return nil, 0, 0, err
	}
	return out, ctx.Counters.GetMax(counterPartCmpReduceMax), ctx.Counters.Get(mapreduce.CounterDominanceTests), nil
}

// decodeRows parses a reducer's emitted records of dim-dimensional tuples,
// concatenated.
func decodeRows(t *testing.T, dim int, b []byte) tuple.List {
	t.Helper()
	var rows tuple.List
	for len(b) > 0 {
		_, _, n, err := tuple.SplitColumns(b, dim)
		if err != nil {
			t.Fatal(err)
		}
		l, err := tuple.DecodeColumns(dim, b[:n])
		if err != nil {
			t.Fatal(err)
		}
		rows, b = append(rows, l...), b[n:]
	}
	return rows
}

// mergeEverything is the reducer rule the skyline job had before it merged
// only the partitions a bucket outputs: every partition of the bucket is
// merged and filtered, and the responsible ones are emitted. It returns the
// emitted rows, encoded, and the pairs Algorithm 5 compared.
func mergeEverything(t *testing.T, g *grid.Grid, mg grid.MergedGroup, runs map[int][]tuple.List) ([]byte, int64) {
	t.Helper()
	pw := partWindows{g: g, s: make(window.Map)}
	for p, r := range runs {
		enc := make([][]byte, len(r))
		for i, run := range r {
			enc[i] = tuple.EncodeList(run)
		}
		if err := pw.mergeRuns(p, enc); err != nil {
			t.Fatal(err)
		}
	}
	pw.comparePartitions(nil)
	var out []byte
	pw.emitColumns(func(_, v []byte) { out = append(out, v...) }, mg.Responsible)
	return out, pw.partCmp
}

// partMapValue encodes one mapper's runs of the bucket's partitions as the
// mapper's record for it; runs are taken as given, in whatever order.
func partMapValue(dim int, runs map[int]tuple.List, parts []int) []byte {
	wm := make(window.Map)
	for p, run := range runs {
		wm[p] = window.FromList(dim, run)
	}
	return appendPartMap(nil, wm, parts)
}

// TestReducerMergesOnlyResponsiblePartitions pins Algorithm 9 as the
// skyline job implements it, on a bucket that outputs a strict subset of
// its partitions. On a 3 × 3 grid holding cells 0 = (0,0), 1 = (0,1),
// 2 = (0,2), 3 = (1,0) and 4 = (1,1), the independent groups are
// {0, 1, 3, 4} and {0, 1, 2}; at two reducers partitions 0 and 1 are
// replicated and output by the cheaper bucket, {0, 1, 2}. The other bucket
// outputs 3 and 4 alone, and there partitions 0 and 1 enter as their raw
// runs: they filter 3 and 4 and are never merged or filtered themselves.
func TestReducerMergesOnlyResponsiblePartitions(t *testing.T) {
	g, err := grid.New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	bs := bitstring.FromIndices(g.NumPartitions(), 0, 1, 2, 3, 4)
	spec := skySpec{Merge: int(grid.MergeByComputation)}
	buckets := spec.formBuckets(g, bs, 2)
	if len(buckets) != 2 || !slices.Equal(buckets[0].Partitions, []int{0, 1, 3, 4}) ||
		!maps.Equal(buckets[0].Responsible, map[int]bool{3: true, 4: true}) {
		t.Fatalf("buckets %+v: want bucket 0 to hold partitions 0, 1, 3, 4 and output 3 and 4", buckets)
	}
	mg := buckets[0]
	// Mapper B's (0.20, 0.10) dominates mapper A's (0.30, 0.30), so merging
	// partition 0 would drop the latter. Raw, it comes first in partition
	// 0's window and is what removes (0.35, 0.31) from cell (1,0) — tested
	// on y, the dimension the two cells share — and (0.40, 0.40) from cell
	// (1,1), which lies wholly above cell (0,0). Whatever it removes, the
	// tuple that dominates it removes too, so the result is the merge's.
	a := map[int]tuple.List{
		0: {{0.30, 0.30}},
		1: {{0.05, 0.50}, {0.25, 0.40}},
		3: {{0.50, 0.05}, {0.35, 0.31}, {0.60, 0.32}},
		4: {{0.40, 0.40}},
	}
	b := map[int]tuple.List{
		0: {{0.20, 0.10}},
		1: {{0.15, 0.45}},
		2: {{0.10, 0.90}},
		3: {{0.40, 0.20}},
	}
	values := [][]byte{partMapValue(2, a, mg.Partitions), partMapValue(2, b, mg.Partitions)}
	got, partCmp, tests, err := reduceBucket(g, spec, bs, 2, mg.ID, values)
	if err != nil {
		t.Fatal(err)
	}
	// The bucket emits the global skyline's tuples of cells 3 and 4, which
	// is exactly what merging everything emits.
	var all, want tuple.List
	for _, m := range []map[int]tuple.List{a, b} {
		for _, run := range m {
			all = append(all, run...)
		}
	}
	for _, u := range skyline.Naive(all) {
		if mg.Responsible[g.Locate(u)] {
			want = append(want, u)
		}
	}
	if rows := decodeRows(t, 2, got); len(want) != 1 || !tuple.EqualAsMultiset(rows, want) {
		t.Errorf("bucket emitted %v, want %v", rows, want)
	}
	runs := map[int][]tuple.List{}
	for _, m := range []map[int]tuple.List{a, b} {
		for _, p := range mg.Partitions {
			if len(m[p]) > 0 {
				runs[p] = append(runs[p], m[p])
			}
		}
	}
	ref, refCmp := mergeEverything(t, g, mg, runs)
	if !bytes.Equal(got, ref) {
		t.Errorf("bucket emitted %v, merging everything emits %v", decodeRows(t, 2, got), decodeRows(t, 2, ref))
	}
	// partCmp counts the pairs whose filtered side the bucket outputs: 3
	// against 0, then 4 against 0, which removes its lone tuple; never 1
	// against 0. No tuple of partition 0 or 1 is tested either. The 10
	// tests are merging cell 3's runs (0 + 1 + 2 + 1: (0.60, 0.32) falls to
	// the first tuple), filtering its three survivors against raw partition
	// 0 (2 + 2 + 1) and cell 4's tuple against it (1: no dimension is open).
	if partCmp != 2 || refCmp != 3 || tests != 10 {
		t.Errorf("partCmp %d (merging everything %d), tests %d; want 2 (3), 10", partCmp, refCmp, tests)
	}

	// A run of a partition the bucket does not output is still checked
	// against the score order, and fails the task naming the partition.
	b[0] = tuple.List{{0.30, 0.30}, {0.20, 0.10}}
	values[1] = partMapValue(2, b, mg.Partitions)
	if _, _, _, err := reduceBucket(g, spec, bs, 2, mg.ID, values); err == nil || !strings.Contains(err.Error(), "partition 0 run out of score order") {
		t.Errorf("out-of-order raw run: error = %v", err)
	}
}

// TestReducerMatchesMergingEverything: over seeded random anticorrelated
// data split into score-ordered runs — raw, so they hold dominated tuples
// and duplicates — every bucket of every reducer count and merge strategy
// emits exactly what merging all of its partitions emits, with partCmp no
// higher, and the buckets together emit skyline.Naive's multiset. Windows
// of a few hundred tuples take FilterOn's E-sum-ordered path.
func TestReducerMatchesMergingEverything(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, ppd, mappers := 2+int(seed%3), 3, 1+rng.Intn(4)
		g, err := grid.New(d, ppd)
		if err != nil {
			t.Fatal(err)
		}
		data := datagen.Generate(datagen.AntiCorrelated, 300+rng.Intn(900), d, seed)
		data = append(data, data[0].Clone(), data[len(data)/3].Clone())
		bs := bitstring.New(g.NumPartitions())
		split := make([]map[int]tuple.List, mappers)
		for i := range split {
			split[i] = make(map[int]tuple.List)
		}
		for _, u := range data {
			p, m := g.Locate(u), rng.Intn(mappers)
			bs.Set(p)
			split[m][p] = append(split[m][p], u)
		}
		for _, m := range split {
			for _, run := range m {
				window.SortByScore(run)
			}
		}
		for _, r := range []int{1, 2, 3, 5} {
			for _, strat := range []grid.MergeStrategy{grid.MergeByComputation, grid.MergeByCommunication} {
				name := fmt.Sprintf("seed %d d=%d r=%d %v", seed, d, r, strat)
				spec := skySpec{Merge: int(strat)}
				var sky tuple.List
				for _, mg := range spec.formBuckets(g, bs, r) {
					var values [][]byte
					runs := map[int][]tuple.List{}
					for _, m := range split {
						if v := partMapValue(d, m, mg.Partitions); len(v) > 1 {
							values = append(values, v)
						}
						for _, p := range mg.Partitions {
							if len(m[p]) > 0 {
								runs[p] = append(runs[p], m[p])
							}
						}
					}
					got, partCmp, _, err := reduceBucket(g, spec, bs, r, mg.ID, values)
					if err != nil {
						t.Fatalf("%s bucket %d: %v", name, mg.ID, err)
					}
					ref, refCmp := mergeEverything(t, g, mg, runs)
					if !bytes.Equal(got, ref) || partCmp > refCmp {
						t.Fatalf("%s bucket %d: emitted %d bytes and %d pairs, merging everything %d and %d", name, mg.ID, len(got), partCmp, len(ref), refCmp)
					}
					sky = append(sky, decodeRows(t, d, got)...)
				}
				if !tuple.EqualAsMultiset(sky, skyline.Naive(data)) {
					t.Fatalf("%s: buckets emitted %d tuples, naive has %d", name, len(sky), len(skyline.Naive(data)))
				}
			}
		}
	}
}
