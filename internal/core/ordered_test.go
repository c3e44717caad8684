package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"mrskyline/internal/cluster"
	"mrskyline/internal/core"
	"mrskyline/internal/datagen"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/skyline"
	"mrskyline/internal/spill"
	"mrskyline/internal/tuple"
)

// TestGridAlgorithmsMatchNaiveAsMultisets is the differential for the
// score-ordered skyline job: across 30 seeds × 3 distributions × d ∈ {1, 2,
// 3, 5}, every grid algorithm returns the same multiset as skyline.Naive —
// mappers' sorted runs, the reducers' ordered merge (which fails the task
// on a run out of order rather than merging it) and the projected ADR
// filter included. Task counts and PPD vary with the
// seed; every tenth seed is large enough that windows outgrow the in-place
// sweep and take the E-sum-ordered path, and seed 7 runs through the spilled
// shuffle, where a run crosses run files and a merge tree on its way to the
// reducer. MR-GPMRS at one reducer must return MR-GPSRS's bytes and
// counters exactly. rpcexec's TestGridAlgorithmsOverProcessWorkers sends one seed
// over the RPC wire.
func TestGridAlgorithmsMatchNaiveAsMultisets(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 10
	}
	algos := append(slices.Clip(algos), algo{"Hybrid", func(cfg core.Config, data tuple.List) (tuple.List, *core.Stats, error) {
		return core.HybridWithThreshold(cfg, data, 300) // both sides of the switch occur
	}})
	dists := []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated}
	for seed := 1; seed <= seeds; seed++ {
		cl, err := cluster.Uniform(2+seed%3, 2)
		if err != nil {
			t.Fatal(err)
		}
		eng := mapreduce.NewEngine(cl)
		if seed == 7 {
			eng.Spill = &spill.Config{Dir: t.TempDir(), Budget: 2048, FanIn: 2}
		}
		card := 150 + 23*seed
		if seed%10 == 0 {
			card = 2500
		}
		for _, dist := range dists {
			for _, d := range []int{1, 2, 3, 5} {
				data := datagen.Generate(dist, card, d, int64(seed))
				// A few exact duplicates: every copy of a skyline tuple must come back.
				data = append(data, data[0].Clone(), data[len(data)/2].Clone())
				want := skyline.Naive(data)
				cfg := core.Config{Engine: eng, PPD: 2 + seed%2, NumMappers: 1 + seed%7, NumReducers: 1 + seed%4}
				var srs tuple.List
				var srsSt *core.Stats
				for _, a := range algos {
					got, st, err := a.run(cfg, data)
					name := fmt.Sprintf("seed %d %v d=%d %s", seed, dist, d, a.name)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !tuple.EqualAsMultiset(got, want) {
						t.Fatalf("%s: got %d tuples, naive has %d", name, len(got), len(want))
					}
					if a.name == "GPSRS" {
						srs, srsSt = got, st
					}
				}
				// MR-GPSRS is MR-GPMRS's skyline job with one bucket: at
				// one reducer the two return the same bytes from the same
				// work.
				one := cfg
				one.NumReducers = 1
				got, st, err := core.GPMRS(one, data)
				name := fmt.Sprintf("seed %d %v d=%d GPMRS(r=1)", seed, dist, d)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(tuple.EncodeList(got), tuple.EncodeList(srs)) {
					t.Fatalf("%s: skyline differs from GPSRS's", name)
				}
				if st.DominanceTests != srsSt.DominanceTests || st.MapperPartCmpMax != srsSt.MapperPartCmpMax ||
					st.ReducerPartCmpMax != srsSt.ReducerPartCmpMax || st.ShuffleBytes != srsSt.ShuffleBytes {
					t.Fatalf("%s: tests/partCmp map/partCmp reduce/shuffle bytes %d/%d/%d/%d, GPSRS %d/%d/%d/%d", name,
						st.DominanceTests, st.MapperPartCmpMax, st.ReducerPartCmpMax, st.ShuffleBytes,
						srsSt.DominanceTests, srsSt.MapperPartCmpMax, srsSt.ReducerPartCmpMax, srsSt.ShuffleBytes)
				}
			}
		}
	}
}
