package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mrskyline/internal/cluster"
	"mrskyline/internal/core"
	"mrskyline/internal/datagen"
	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/skyline"
	"mrskyline/internal/tuple"
)

func testConfig(t testing.TB, nodes, slots int) core.Config {
	t.Helper()
	c, err := cluster.Uniform(nodes, slots)
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{Engine: mapreduce.NewEngine(c)}
}

type algo struct {
	name string
	run  func(core.Config, tuple.List) (tuple.List, *core.Stats, error)
}

var algos = []algo{
	{"GPSRS", core.GPSRS},
	{"GPMRS", core.GPMRS},
}

func TestAgainstReferenceAcrossDistributions(t *testing.T) {
	cfg := testConfig(t, 4, 2)
	for _, a := range algos {
		for _, dist := range []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated} {
			for _, shape := range []struct{ card, d int }{{300, 2}, {500, 3}, {200, 5}, {400, 7}} {
				name := fmt.Sprintf("%s/%v/c%d-d%d", a.name, dist, shape.card, shape.d)
				t.Run(name, func(t *testing.T) {
					data := datagen.Generate(dist, shape.card, shape.d, 99)
					want := skyline.Naive(data)
					c := cfg
					c.PPD = 3
					got, stats, err := a.run(c, data)
					if err != nil {
						t.Fatal(err)
					}
					if !tuple.EqualAsSet(got, want) {
						t.Fatalf("skyline mismatch: got %d tuples, want %d", len(got), len(want))
					}
					if stats.SkylineSize != len(got) {
						t.Errorf("stats.SkylineSize = %d, want %d", stats.SkylineSize, len(got))
					}
				})
			}
		}
	}
}

func TestAgainstReferenceAcrossShapes(t *testing.T) {
	// Vary mapper count, reducer count, PPD and both algorithm knobs.
	rng := rand.New(rand.NewSource(123))
	base := testConfig(t, 5, 2)
	for trial := 0; trial < 25; trial++ {
		card := 50 + rng.Intn(400)
		d := 1 + rng.Intn(6)
		dist := datagen.Distribution(rng.Intn(3))
		data := datagen.Generate(dist, card, d, int64(trial))
		want := skyline.Naive(data)

		cfg := base
		cfg.NumMappers = 1 + rng.Intn(8)
		cfg.NumReducers = 1 + rng.Intn(8)
		cfg.PPD = 2 + rng.Intn(4)
		if d >= 5 {
			cfg.PPD = 2 + rng.Intn(2)
		}
		cfg.Kernel = skyline.Kernel(rng.Intn(3)) // BNL, SFS or D&C
		if rng.Intn(2) == 0 {
			cfg.Merge = grid.MergeByCommunication
		}
		if rng.Intn(4) == 0 {
			cfg.DisablePruning = true
		}
		for _, a := range algos {
			got, _, err := a.run(cfg, data)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.name, err)
			}
			if !tuple.EqualAsSet(got, want) {
				t.Fatalf("trial %d %s (card=%d d=%d dist=%v m=%d r=%d ppd=%d kernel=%v merge=%v prune=%v): got %d want %d",
					trial, a.name, card, d, dist, cfg.NumMappers, cfg.NumReducers, cfg.PPD,
					cfg.Kernel, cfg.Merge, !cfg.DisablePruning, len(got), len(want))
			}
		}
	}
}

func TestGPMRSNoDuplicateOutput(t *testing.T) {
	// Replicated partitions must be output exactly once (Section 5.4.2):
	// the result may contain genuine duplicates only if the input does.
	cfg := testConfig(t, 4, 2)
	cfg.PPD = 4
	cfg.NumReducers = 3
	data := datagen.Generate(datagen.AntiCorrelated, 600, 3, 5)
	got, _, err := core.GPMRS(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, tp := range got {
		seen[tp.String()]++
	}
	for s, n := range seen {
		if n > 1 {
			t.Errorf("tuple %s output %d times", s, n)
		}
	}
}

func TestAutoPPD(t *testing.T) {
	cfg := testConfig(t, 3, 2)
	data := datagen.Generate(datagen.Independent, 2000, 3, 17)
	want := skyline.Naive(data)
	for _, a := range algos {
		got, stats, err := a.run(cfg, data) // PPD = 0 → Section 3.3 job
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if !tuple.EqualAsSet(got, want) {
			t.Fatalf("%s: wrong skyline with auto PPD", a.name)
		}
		if !stats.AutoPPD || stats.PPD < 2 {
			t.Errorf("%s: stats = %+v, expected auto-chosen PPD ≥ 2", a.name, stats)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	cfg := testConfig(t, 2, 1)
	for _, a := range algos {
		got, stats, err := a.run(cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if len(got) != 0 || stats.SkylineSize != 0 {
			t.Errorf("%s: empty input produced %v", a.name, got)
		}
	}
}

func TestSingleTuple(t *testing.T) {
	cfg := testConfig(t, 2, 1)
	cfg.PPD = 2
	data := tuple.List{{0.3, 0.7}}
	for _, a := range algos {
		got, _, err := a.run(cfg, data)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if len(got) != 1 || !got[0].Equal(data[0]) {
			t.Errorf("%s: singleton skyline = %v", a.name, got)
		}
	}
}

func TestDuplicateTuplesPreserved(t *testing.T) {
	// Equal tuples do not dominate each other, so input duplicates of a
	// skyline point must all survive.
	cfg := testConfig(t, 3, 2)
	cfg.PPD = 3
	cfg.NumMappers = 1 // both duplicates on one mapper keeps the count exact
	data := tuple.List{{0.1, 0.9}, {0.1, 0.9}, {0.5, 0.5}, {0.9, 0.1}, {0.8, 0.8}}
	for _, a := range algos {
		got, _, err := a.run(cfg, data)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		dups := 0
		for _, tp := range got {
			if tp.Equal(tuple.Tuple{0.1, 0.9}) {
				dups++
			}
		}
		if dups != 2 {
			t.Errorf("%s: duplicate skyline tuple kept %d times, want 2 (got %v)", a.name, dups, got)
		}
	}
}

func TestIdenticalResultsAcrossReducerCounts(t *testing.T) {
	cfg := testConfig(t, 6, 2)
	cfg.PPD = 4
	data := datagen.Generate(datagen.AntiCorrelated, 800, 4, 31)
	want := skyline.Naive(data)
	for r := 1; r <= 9; r += 2 {
		c := cfg
		c.NumReducers = r
		got, stats, err := core.GPMRS(c, data)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if !tuple.EqualAsSet(got, want) {
			t.Fatalf("r=%d: wrong skyline (%d vs %d)", r, len(got), len(want))
		}
		if stats.MergedGroups > r {
			t.Errorf("r=%d: %d merged groups exceed reducer count", r, stats.MergedGroups)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	cfg := testConfig(t, 4, 2)
	cfg.PPD = 4
	cfg.NumReducers = 3
	data := datagen.Generate(datagen.AntiCorrelated, 1000, 3, 7)
	_, stats, err := core.GPMRS(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Algorithm != "MR-GPMRS" {
		t.Errorf("Algorithm = %q", stats.Algorithm)
	}
	if stats.Partitions != 64 {
		t.Errorf("Partitions = %d, want 64", stats.Partitions)
	}
	if stats.NonEmpty == 0 || stats.Surviving == 0 || stats.Surviving > stats.NonEmpty {
		t.Errorf("NonEmpty=%d Surviving=%d", stats.NonEmpty, stats.Surviving)
	}
	if stats.Groups == 0 || stats.MergedGroups == 0 {
		t.Errorf("Groups=%d MergedGroups=%d", stats.Groups, stats.MergedGroups)
	}
	if stats.DominanceTests == 0 {
		t.Error("DominanceTests = 0")
	}
	if stats.ShuffleBytes == 0 {
		t.Error("ShuffleBytes = 0")
	}
	if stats.MapperPartCmpMax == 0 {
		t.Error("MapperPartCmpMax = 0")
	}
	if stats.Total <= 0 || stats.SkylineTime <= 0 || stats.BitstringTime <= 0 {
		t.Errorf("timings: total=%v sky=%v bs=%v", stats.Total, stats.SkylineTime, stats.BitstringTime)
	}
}

func TestPruningReducesSurvivors(t *testing.T) {
	cfg := testConfig(t, 3, 2)
	cfg.PPD = 5
	data := datagen.Generate(datagen.Independent, 5000, 2, 3)
	_, pruned, err := core.GPSRS(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisablePruning = true
	_, unpruned, err := core.GPSRS(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Surviving >= unpruned.Surviving {
		t.Errorf("pruning did not reduce partitions: %d vs %d", pruned.Surviving, unpruned.Surviving)
	}
	// With 5000 uniform tuples in 25 cells, every cell is non-empty and
	// Equation 2 leaves ρrem(5,2) = 25 − 16 = 9.
	if pruned.Surviving != 9 {
		t.Errorf("Surviving = %d, want 9", pruned.Surviving)
	}
	if unpruned.Surviving != 25 {
		t.Errorf("unpruned Surviving = %d, want 25", unpruned.Surviving)
	}
}

func TestConfigValidation(t *testing.T) {
	data := tuple.List{{0.5, 0.5}}
	if _, _, err := core.GPSRS(core.Config{}, data); err == nil {
		t.Error("missing engine accepted")
	}
	cfg := testConfig(t, 1, 1)
	cfg.PPD = 1
	if _, _, err := core.GPSRS(cfg, data); err == nil {
		t.Error("PPD=1 accepted")
	}
	cfg.PPD = -3
	if _, _, err := core.GPMRS(cfg, data); err == nil {
		t.Error("negative PPD accepted")
	}
	cfg.PPD = 2
	if _, _, err := core.GPSRS(cfg, tuple.List{{0.1, 0.2}, {0.1}}); err == nil {
		t.Error("ragged data accepted")
	}
}

func TestFaultToleranceEndToEnd(t *testing.T) {
	// Every first attempt of every task fails; the job chain must still
	// produce the correct skyline via retries.
	cfg := testConfig(t, 4, 2)
	cfg.PPD = 3
	cfg.NumReducers = 3
	cfg.Engine.(*mapreduce.Engine).FaultInjector = func(phase mapreduce.Phase, taskID, attempt int) error {
		if attempt == 1 {
			return fmt.Errorf("injected %v-%d failure", phase, taskID)
		}
		return nil
	}
	data := datagen.Generate(datagen.AntiCorrelated, 400, 3, 13)
	want := skyline.Naive(data)
	for _, a := range algos {
		got, _, err := a.run(cfg, data)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if !tuple.EqualAsSet(got, want) {
			t.Fatalf("%s: wrong skyline under fault injection", a.name)
		}
	}
}

func TestHighDimensionalSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testConfig(t, 4, 2)
	cfg.PPD = 2
	cfg.NumReducers = 4
	data := datagen.Generate(datagen.AntiCorrelated, 300, 10, 3)
	want := skyline.Naive(data)
	for _, a := range algos {
		got, _, err := a.run(cfg, data)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if !tuple.EqualAsSet(got, want) {
			t.Fatalf("%s: wrong skyline at d=10", a.name)
		}
	}
}

func TestAllTuplesIdentical(t *testing.T) {
	cfg := testConfig(t, 2, 2)
	cfg.PPD = 3
	data := make(tuple.List, 20)
	for i := range data {
		data[i] = tuple.Tuple{0.4, 0.4}
	}
	for _, a := range algos {
		got, _, err := a.run(cfg, data)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if len(got) == 0 {
			t.Fatalf("%s: all-identical input produced empty skyline", a.name)
		}
		for _, tp := range got {
			if !tp.Equal(tuple.Tuple{0.4, 0.4}) {
				t.Fatalf("%s: unexpected tuple %v", a.name, tp)
			}
		}
	}
}
