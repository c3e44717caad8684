package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mrskyline/internal/bitstring"
	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/skyline/window"
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
		pw := partWindows{g: g, s: make(window.Map)}
		err := pw.mergeRuns(0, [][]byte{tuple.EncodeList(sorted), tuple.EncodeList(run)})
		if err == nil || !strings.Contains(err.Error(), "partition 0 run out of score order") {
			t.Errorf("%s: mergeRuns error = %v", name, err)
		}
		if len(pw.s) != 0 {
			t.Errorf("%s: a window was kept for the failed partition", name)
		}

		// The same through MR-GPSRS's one-bucket reducer, as the engine
		// would call it: each value is one mapper's partition map, holding
		// its run of partition 0 (uvarint count 1, uvarint partition 0).
		ctx := &mapreduce.TaskContext{
			NumMappers: 2, NumReducers: 1, Counters: mapreduce.NewCounters(), Trace: obs.NewMetricsOnly(),
		}
		values := [][]byte{append([]byte{1, 0}, tuple.EncodeList(sorted)...), append([]byte{1, 0}, tuple.EncodeList(run)...)}
		spec := skySpec{Buckets: gpsrsBuckets(bitstring.FromIndices(g.NumPartitions(), 0))}
		err = skyFuncs(spec, g).NewReducer().Reduce(ctx, mapreduce.IntKey(0), values, func(_, _ []byte) {})
		if err == nil || !strings.Contains(err.Error(), "run out of score order") {
			t.Errorf("%s: reducer error = %v", name, err)
		}
	}
	pw := partWindows{g: g, s: make(window.Map)}
	if err := pw.mergeRuns(0, [][]byte{tuple.EncodeList(sorted), tuple.EncodeList(sorted)}); err != nil {
		t.Fatalf("sorted runs rejected: %v", err)
	}
	if got := pw.s[0].Len(); got != 4 {
		t.Errorf("merged %d tuples, want both copies of both tuples", got)
	}
	if err := pw.mergeRuns(0, [][]byte{tuple.EncodeList(sorted)}); err == nil {
		t.Error("a partition was merged twice")
	}
}

// TestOneBucketIsMergeGroupsAtOneReducer pins what lets MR-GPSRS run as
// MR-GPMRS's skyline job: over seeded random bitstrings, the empty one and
// single-partition ones among them, the one-bucket rule (gpsrsBuckets)
// forms exactly the bucket — partitions and outputs — that merging the
// independent groups down to one reducer forms (gpmrsBuckets at r = 1),
// under either merge strategy.
func TestOneBucketIsMergeGroupsAtOneReducer(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		d, ppd := 1+rng.Intn(4), 2+rng.Intn(3)
		g, err := grid.New(d, ppd)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumPartitions()
		bs := bitstring.New(n)
		switch trial % 4 {
		case 0: // empty
		case 1:
			bs.Set(rng.Intn(n))
		default:
			density := rng.Float64()
			for i := 0; i < n; i++ {
				if rng.Float64() < density {
					bs.Set(i)
				}
			}
		}
		got := gpsrsBuckets(bs)
		for _, strat := range []grid.MergeStrategy{grid.MergeByComputation, grid.MergeByCommunication} {
			want := gpmrsBuckets(g.IndependentGroups(bs), 1, strat)
			if len(got) != len(want) {
				t.Fatalf("trial %d (%v, %d set): %d buckets, MergeGroups has %d", trial, strat, bs.Count(), len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i].Parts, want[i].Parts) || !slices.Equal(got[i].Outputs, want[i].Outputs) {
					t.Fatalf("trial %d (%v): bucket %+v, MergeGroups has %+v", trial, strat, got[i], want[i])
				}
			}
		}
	}
}
