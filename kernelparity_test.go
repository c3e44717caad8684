package mrskyline_test

import (
	"fmt"
	"runtime"
	"testing"

	mrskyline "mrskyline"
)

// TestKernelCountParity pins the exact DominanceTests of every algorithm
// on fixed workloads; skyline cardinality is pinned alongside as a sanity
// anchor. The table holds two kinds of row.
//
// The 6 baseline rows (MR-BNL, MR-Angle) were captured with the scalar
// tuple-at-a-time window before the columnar block kernel replaced it and
// have not changed since: Insert, Dominated and FilterBy must classify
// exactly the pairs the scalar loops did — including scans a dominator
// cuts short mid-block — so any drift there
// means the shared kernel no longer agrees with the scalar reference pair
// for pair, even if the skyline itself is still correct.
//
// The 9 grid rows (MR-GPSRS, MR-GPMRS, Hybrid) no longer pin "the same
// pairs as the scalar loop": those algorithms merge score-ordered runs
// without evicting and compare a partition with its ADR partitions only on
// the dimensions their cells share, stopping each scan on the candidates'
// sums over those dimensions — fewer pairs, on purpose. What the rows pin
// is "this many tests, deterministically": a count that moves without the
// kernel having been changed means the work now depends on something it
// should not (map order, scheduling, an unstable sort).
func TestKernelCountParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity sweep runs every algorithm; skipped in -short mode")
	}
	type golden struct {
		tests int64
		size  int
	}
	want := map[string]golden{
		"independent/MR-GPMRS/bnl":    {14149, 88},
		"independent/MR-GPSRS/bnl":    {13995, 88},
		"independent/Hybrid/bnl":      {13995, 88},
		"independent/MR-BNL/bnl":      {20716, 88},
		"independent/MR-Angle/bnl":    {15604, 88},
		"anticorrelated/MR-GPMRS/bnl": {65964, 551},
		"anticorrelated/MR-GPSRS/bnl": {65706, 551},
		"anticorrelated/Hybrid/bnl":   {65706, 551},
		"anticorrelated/MR-BNL/bnl":   {98548, 551},
		"anticorrelated/MR-Angle/bnl": {242746, 551},
		"correlated/MR-GPMRS/bnl":     {3281, 4},
		"correlated/MR-GPSRS/bnl":     {3281, 4},
		"correlated/Hybrid/bnl":       {3281, 4},
		"correlated/MR-BNL/bnl":       {10847, 4},
		"correlated/MR-Angle/bnl":     {2602, 4},
	}
	for _, dist := range []string{"independent", "anticorrelated", "correlated"} {
		data, err := mrskyline.Generate(dist, 1500, 4, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range mrskyline.Algorithms() {
			key := fmt.Sprintf("%s/%s/bnl", dist, algo)
			res, err := mrskyline.Compute(data, mrskyline.Options{Algorithm: algo, Nodes: 4})
			if err != nil {
				t.Errorf("%s: %v", key, err)
				continue
			}
			g, ok := want[key]
			if !ok {
				t.Errorf("%s: no golden recorded (new algorithm? capture its counts)", key)
				continue
			}
			if res.Stats.DominanceTests != g.tests || res.Stats.SkylineSize != g.size {
				t.Errorf("%s: tests=%d size=%d, want tests=%d size=%d",
					key, res.Stats.DominanceTests, res.Stats.SkylineSize, g.tests, g.size)
			}
		}
	}
}

// TestKernelCountParityLargeGathers pins the counts of BenchmarkComputeAnti's
// operation (anticorrelated 40 000 × 5, seed 7, default Options), whose
// reducers filter partitions by candidate sets of a few hundred tuples, so
// gather's bucket pass orders most of its candidates. That order is
// (E-sum, position), a comparison sort's, so the counts are exact and
// repeat at GOMAXPROCS 1 and at the default alike: no count depends on how
// the tasks interleave.
func TestKernelCountParityLargeGathers(t *testing.T) {
	if testing.Short() {
		t.Skip("a full batch-anti operation at two GOMAXPROCS; skipped in -short mode")
	}
	data, err := mrskyline.Generate("anticorrelated", 40000, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := mrskyline.Compute(data, mrskyline.Options{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.DominanceTests != 5855278 || len(res.Skyline) != 7997 {
			t.Errorf("GOMAXPROCS %d: tests=%d skyline=%d, want tests=5855278 skyline=7997",
				procs, res.Stats.DominanceTests, len(res.Skyline))
		}
	}
}
