package baseline_test

import (
	"fmt"
	"testing"

	"mrskyline/internal/baseline"
	"mrskyline/internal/cluster"
	"mrskyline/internal/datagen"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/skyline"
	"mrskyline/internal/tuple"
)

func testConfig(t testing.TB) baseline.Config {
	t.Helper()
	c, err := cluster.Uniform(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return baseline.Config{Engine: mapreduce.NewEngine(c)}
}

type algo struct {
	name string
	run  func(baseline.Config, tuple.List) (tuple.List, *baseline.Stats, error)
}

var algos = []algo{
	{"MR-BNL", baseline.MRBNL},
	{"MR-Angle", baseline.MRAngle},
	{"SKY-MR", baseline.SKYMR},
}

func TestAgainstReference(t *testing.T) {
	cfg := testConfig(t)
	for _, a := range algos {
		for _, dist := range []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated} {
			for _, shape := range []struct{ card, d int }{{200, 1}, {300, 2}, {400, 3}, {250, 5}, {150, 8}} {
				name := fmt.Sprintf("%s/%v/c%d-d%d", a.name, dist, shape.card, shape.d)
				t.Run(name, func(t *testing.T) {
					data := datagen.Generate(dist, shape.card, shape.d, 77)
					want := skyline.Naive(data)
					got, stats, err := a.run(cfg, data)
					if err != nil {
						t.Fatal(err)
					}
					if !tuple.EqualAsSet(got, want) {
						t.Fatalf("skyline mismatch: got %d, want %d", len(got), len(want))
					}
					if stats.SkylineSize != len(got) || stats.Partitions < 1 {
						t.Errorf("stats = %+v", stats)
					}
				})
			}
		}
	}
}

// TestSKYMRCountParity pins SKY-MR's exact DominanceTests, with the
// skyline size as a sanity anchor, on the workloads where the root
// package's TestKernelCountParity captured them: 1 500 4-d rows of seed 7
// on a 4 × 2 cluster, over the rows' bounding box. A count that moves means
// the shared window kernel no longer classifies the pairs it did.
func TestSKYMRCountParity(t *testing.T) {
	for dist, want := range map[datagen.Distribution]struct {
		tests int64
		size  int
	}{
		datagen.Independent:    {9754, 88},
		datagen.AntiCorrelated: {32007, 551},
		datagen.Correlated:     {2335, 4},
	} {
		data := datagen.Generate(dist, 1500, 4, 7)
		lo, hi := data[0].Clone(), data[0].Clone()
		for _, tp := range data[1:] {
			lo.MinWith(tp)
			hi.MaxWith(tp)
		}
		cfg := testConfig(t)
		cfg.Lo, cfg.Hi = lo, hi
		_, stats, err := baseline.SKYMR(cfg, data)
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		if stats.DominanceTests != want.tests || stats.SkylineSize != want.size {
			t.Errorf("%v: tests=%d size=%d, want tests=%d size=%d", dist, stats.DominanceTests, stats.SkylineSize, want.tests, want.size)
		}
	}
}

func TestVaryMappers(t *testing.T) {
	data := datagen.Generate(datagen.AntiCorrelated, 500, 4, 3)
	want := skyline.Naive(data)
	for _, m := range []int{1, 3, 7} {
		cfg := testConfig(t)
		cfg.NumMappers = m
		for _, a := range algos {
			got, _, err := a.run(cfg, data)
			if err != nil {
				t.Fatalf("%s m=%d: %v", a.name, m, err)
			}
			if !tuple.EqualAsSet(got, want) {
				t.Fatalf("%s m=%d: wrong skyline", a.name, m)
			}
		}
	}
}

func TestEmptyAndValidation(t *testing.T) {
	cfg := testConfig(t)
	for _, a := range algos {
		got, stats, err := a.run(cfg, nil)
		if err != nil || len(got) != 0 || stats.SkylineSize != 0 {
			t.Errorf("%s: empty input → %v, %+v, %v", a.name, got, stats, err)
		}
		if _, _, err := a.run(baseline.Config{}, tuple.List{{0.1}}); err == nil {
			t.Errorf("%s: missing engine accepted", a.name)
		}
		if _, _, err := a.run(cfg, tuple.List{{0.1, 0.2}, {0.3}}); err == nil {
			t.Errorf("%s: ragged data accepted", a.name)
		}
	}
}

func TestMRBNLRejectsAbsurdDimensionality(t *testing.T) {
	cfg := testConfig(t)
	data := make(tuple.List, 1)
	data[0] = make(tuple.Tuple, 25)
	if _, _, err := baseline.MRBNL(cfg, data); err == nil {
		t.Error("2^25 subspaces accepted")
	}
}

func TestMRAngleExplicitPartitions(t *testing.T) {
	cfg := testConfig(t)
	cfg.AngularPartitions = 16
	data := datagen.Generate(datagen.Independent, 400, 3, 9)
	got, stats, err := baseline.MRAngle(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	if !tuple.EqualAsSet(got, skyline.Naive(data)) {
		t.Fatal("wrong skyline")
	}
	if stats.Partitions != 16 { // k = ceil(16^(1/2)) = 4; 4² = 16
		t.Errorf("Partitions = %d, want 16", stats.Partitions)
	}
}

func TestStatsCounters(t *testing.T) {
	cfg := testConfig(t)
	data := datagen.Generate(datagen.AntiCorrelated, 500, 3, 1)
	for _, a := range algos {
		_, stats, err := a.run(cfg, data)
		if err != nil {
			t.Fatal(err)
		}
		if stats.DominanceTests == 0 {
			t.Errorf("%s: DominanceTests = 0", a.name)
		}
		if stats.ShuffleBytes == 0 {
			t.Errorf("%s: ShuffleBytes = 0", a.name)
		}
		if stats.Total <= 0 {
			t.Errorf("%s: Total = %v", a.name, stats.Total)
		}
	}
}

func TestBoundaryTuples(t *testing.T) {
	// Zeros (which hit the atan(∞) branch of the angle transform and the
	// lowest subspace) and values at the half boundary.
	cfg := testConfig(t)
	data := tuple.List{
		{0, 0, 0},
		{0.5, 0.5, 0.5},
		{0, 0.999, 0.5},
		{0.999, 0, 0},
		{0.25, 0.75, 0.5},
	}
	want := skyline.Naive(data)
	for _, a := range algos {
		got, _, err := a.run(cfg, data)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if !tuple.EqualAsSet(got, want) {
			t.Fatalf("%s: got %v, want %v", a.name, got, want)
		}
	}
}
