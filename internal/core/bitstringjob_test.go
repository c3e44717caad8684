package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"mrskyline/internal/bitstring"
	"mrskyline/internal/cluster"
	"mrskyline/internal/datagen"
	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/tuple"
)

func internalTestConfig(t testing.TB) *Config {
	t.Helper()
	c, err := cluster.Uniform(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &Config{Engine: mapreduce.NewEngine(c)}
}

// TestChoosePPDMatchesReference holds job 1, its dead-candidate rule
// included, to a reference that shares no job code: locate every row on
// each candidate grid, count ρ, let grid.ChoosePPD pick, prune the winner.
// Every case runs auto PPD and two fixed PPDs, 2 and the largest candidate;
// PPD, AutoPPD, bitstring bytes and NonEmpty must agree, and the auto job may shuffle no more than the same job whose
// mappers emit every candidate. Rows come in three layouts: as generated;
// sorted, so that some splits fill a candidate and others never do; and
// copies of one row but the last, so that at d ≥ 2 no split fills one.
func TestChoosePPDMatchesReference(t *testing.T) {
	cases, cut := 0, 0
	for _, dist := range []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated} {
		for _, d := range []int{1, 2, 3, 5, 8} {
			for _, card := range []int{3, 40, 1500, 20_000} {
				for seed := int64(0); seed < 4; seed++ {
					data := datagen.Generate(dist, card, d, seed)
					sorted := data.Clone()
					slices.SortFunc(sorted, func(a, b tuple.Tuple) int { return slices.Compare(a, b) })
					dups := make(tuple.List, card)
					for i := range dups {
						dups[i] = data[0]
					}
					dups[card-1] = data[card-1]
					for layout, rows := range map[string]tuple.List{"random": data, "sorted": sorted, "dups": dups} {
						name := fmt.Sprintf("%v/d%d/card%d/seed%d/%s", dist, d, card, seed, layout)
						if checkChoosePPD(t, name, internalTestConfig(t), rows) {
							cut++
						}
						cases++
					}
				}
			}
		}
	}
	if cut == 0 {
		t.Errorf("the dead-candidate rule cut the shuffle in none of %d cases", cases)
	}
}

// checkChoosePPD runs ChoosePPDAndBitstring over rows at auto PPD and at
// the fixed PPDs 2 and nm, checks each against referenceJobOne, and checks
// the auto run against the emit-every-candidate job. It reports whether the
// auto run shuffled less than the latter.
func checkChoosePPD(t *testing.T, name string, cfg *Config, rows tuple.List) bool {
	t.Helper()
	d, card := rows.Dim(), len(rows)
	input := mapreduce.TupleInput(rows)
	candidates := ppdCandidates(card, d)
	got, err := ChoosePPDAndBitstring(cfg, d, card, input, false)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkJobOne(t, name+"/auto", got, true, rows, candidates)
	for _, ppd := range slices.Compact([]int{2, grid.MaxCandidatePPD(card, d, grid.MaxPartitions)}) {
		fixed := *cfg
		fixed.PPD = ppd
		one, err := ChoosePPDAndBitstring(&fixed, d, card, input, false)
		if err != nil {
			t.Fatalf("%s/ppd%d: %v", name, ppd, err)
		}
		checkJobOne(t, fmt.Sprintf("%s/ppd%d", name, ppd), one, false, rows, []int{ppd})
	}

	ladder, err := grid.NewLadder(d, candidates, cfg.Lo, cfg.Hi)
	if err != nil {
		t.Fatal(err)
	}
	every, err := cfg.Engine.RunContext(cfg.ctx(), &mapreduce.Job{
		Name:        "ppd-select-every-candidate",
		Input:       input,
		NumMappers:  cfg.mappers(),
		NumReducers: 1,
		NewMapper:   func() mapreduce.Mapper { return everyCandidateMapper(ladder) },
		NewReducer:  func() mapreduce.Reducer { return newPPDSelectReducer(card, ladder) },
	})
	if err != nil {
		t.Fatal(err)
	}
	shuffled, bound := got.Job.Counters.Get(mapreduce.CounterShuffleBytes), every.Counters.Get(mapreduce.CounterShuffleBytes)
	if shuffled > bound {
		t.Fatalf("%s: shuffled %d B, every candidate emitted %d B", name, shuffled, bound)
	}
	return shuffled < bound
}

// checkJobOne compares one job-1 result with referenceJobOne over the same
// rows and candidates.
func checkJobOne(t *testing.T, name string, got *BitstringResult, auto bool, rows tuple.List, candidates []int) {
	t.Helper()
	best, want, nonEmpty := referenceJobOne(t, rows, candidates)
	if got.PPD != best || got.Grid.PPD() != best || got.AutoPPD != auto {
		t.Fatalf("%s: chose PPD %d (grid %d, auto %v), reference %d (auto %v)", name, got.PPD, got.Grid.PPD(), got.AutoPPD, best, auto)
	}
	if !bytes.Equal(got.Bitstring.Encode(), want.Encode()) {
		t.Fatalf("%s: bitstring differs from the reference at PPD %d", name, best)
	}
	if got.NonEmpty != nonEmpty {
		t.Fatalf("%s: NonEmpty %d, reference %d", name, got.NonEmpty, nonEmpty)
	}
}

// referenceJobOne is job 1 without MapReduce over the unit box: it locates
// every row on each candidate grid, counts ρ, lets grid.ChoosePPD pick and
// prunes the winner's bitstring. It returns the winner, its pruned
// bitstring and its ρ.
func referenceJobOne(t *testing.T, rows tuple.List, candidates []int) (int, *bitstring.Bitstring, int) {
	t.Helper()
	d := rows.Dim()
	grids := make(map[int]*grid.Grid, len(candidates))
	occ := make(map[int]*bitstring.Bitstring, len(candidates))
	rho := make(map[int]int, len(candidates))
	for _, j := range candidates {
		g, err := grid.New(d, j)
		if err != nil {
			t.Fatal(err)
		}
		bs := bitstring.New(g.NumPartitions())
		for _, r := range rows {
			bs.Set(g.Locate(r))
		}
		grids[j], occ[j], rho[j] = g, bs, bs.Count()
	}
	best := grid.ChoosePPD(len(rows), d, rho)
	grids[best].Prune(occ[best])
	return best, occ[best], rho[best]
}

// everyCandidateMapper is the PPD-select mapper without the dead-candidate
// rule: it locates every record on every candidate grid and flushes every
// candidate.
func everyCandidateMapper(ladder *grid.Ladder) mapreduce.Mapper {
	locals := make([]*bitstring.Bitstring, ladder.Len())
	for i := range locals {
		locals[i] = bitstring.New(ladder.Grid(i).NumPartitions())
	}
	return mapreduce.MapperFuncs{
		MapFn: func(_ *mapreduce.TaskContext, rec mapreduce.Record, _ mapreduce.Emitter) error {
			t, _, err := tuple.Decode(rec.Value)
			if err != nil {
				return err
			}
			for i, local := range locals {
				local.Set(ladder.Grid(i).Locate(t))
			}
			return nil
		},
		FlushFn: func(_ *mapreduce.TaskContext, emit mapreduce.Emitter) error {
			for i, local := range locals {
				emit(mapreduce.IntKey(ladder.Grid(i).PPD()), local.Encode())
			}
			return nil
		},
	}
}

// TestChoosePPDDeadCandidateRuleFires: on the batch-indep shape (independent
// 150 000 × 3, 16 mappers) every split fills the coarsest candidate, so the
// job shuffles exactly one PPD-2 bitstring per mapper.
func TestChoosePPDDeadCandidateRuleFires(t *testing.T) {
	const card, d, mappers = 150_000, 3, 16
	cfg := internalTestConfig(t)
	cfg.NumMappers = mappers
	got, err := ChoosePPDAndBitstring(cfg, d, card, mapreduce.TupleInput(datagen.Generate(datagen.Independent, card, d, 1)), false)
	if err != nil {
		t.Fatal(err)
	}
	if got.PPD != 2 || got.NonEmpty != 8 {
		t.Fatalf("chose PPD %d with %d non-empty cells, want PPD 2 with 8", got.PPD, got.NonEmpty)
	}
	one := len(mapreduce.IntKey(2)) + len(bitstring.New(8).Encode())
	if n, b := got.Job.Counters.Get(mapreduce.CounterMapOutputRecords), got.Job.Counters.Get(mapreduce.CounterShuffleBytes); n != mappers || b != int64(mappers*one) {
		t.Fatalf("shuffled %d records, %d B; want %d PPD-2 bitstrings, %d B", n, b, mappers, mappers*one)
	}
}

// mapThrough runs m as the one map task of a job over recs on eng, so that
// the split reaches m as a map attempt's does — decoded once into a batch
// by the engine's mapSplit — and returns the job's error. Every attempt of
// the task gets m itself, so its state carries over from call to call.
func mapThrough(eng mapreduce.Executor, m mapreduce.Mapper, recs ...mapreduce.Record) error {
	_, err := eng.RunContext(context.Background(), &mapreduce.Job{
		Name: "job 1", Input: mapreduce.RecordsInput(recs), NumMappers: 1, NumReducers: 1,
		NewMapper:  func() mapreduce.Mapper { return m },
		NewReducer: func() mapreduce.Reducer { return mapreduce.ReducerFuncs{} },
	})
	return err
}

// TestJobOneMapFnAllocs pins job 1's map body to no per-row allocation, on
// the default codec, over the candidate series and over one level (a fixed
// PPD): a map task over a 512-record split allocates as many objects as one
// over twice the records, give or take the engine's own noise.
func TestJobOneMapFnAllocs(t *testing.T) {
	const d = 3
	candidates := ppdCandidates(150_000, d)
	series, err := grid.NewLadder(d, candidates, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	one, err := grid.NewLadder(d, candidates[len(candidates)-1:], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := internalTestConfig(t).Engine
	for name, ladder := range map[string]*grid.Ladder{"ppd-select": series, "one level": one} {
		var counts []float64
		for _, n := range []int{512, 1024} {
			recs := mapreduce.TupleInput(datagen.Generate(datagen.Independent, n, d, 1)).Records
			counts = append(counts, testing.AllocsPerRun(20, func() {
				if err := mapThrough(eng, newPPDSelectMapper(ladder), recs...); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if extra := counts[1] - counts[0]; extra > 64 {
			t.Errorf("%s: a map task allocates %v objects over 512 records, %v over 1024: %v per extra row, want none", name, counts[0], counts[1], extra/512)
		}
	}
}

// TestJobOneMapFnRejectsDimension: the dimensionality check survives the
// batch decode, for records narrower and wider than d, alone in a split or
// beside well-formed ones, and survives the coarsest level filling, after
// which the mapper locates nothing — over the candidate series and over one
// level (a fixed PPD). A rejected split leaves the mapper usable.
func TestJobOneMapFnRejectsDimension(t *testing.T) {
	series, err := grid.NewLadder(3, []int{2, 4}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	one, err := grid.NewLadder(3, []int{2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := internalTestConfig(t).Engine
	rec := func(t tuple.Tuple) mapreduce.Record { return mapreduce.Record{Value: tuple.Encode(t)} }
	good := rec(tuple.Tuple{0.1, 0.2, 0.3})
	full := func(ladder *grid.Ladder) mapreduce.Mapper {
		m := newPPDSelectMapper(ladder)
		var corners []mapreduce.Record
		for c := 0; c < 8; c++ {
			corners = append(corners, rec(tuple.Tuple{0.25 + 0.5*float64(c>>2&1), 0.25 + 0.5*float64(c>>1&1), 0.25 + 0.5*float64(c&1)}))
		}
		if err := mapThrough(eng, m, corners...); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for name, m := range map[string]mapreduce.Mapper{
		"ppd-select":             newPPDSelectMapper(series),
		"ppd-select, PPD 2 full": full(series),
		"one level":              newPPDSelectMapper(one),
		"one level, full":        full(one),
	} {
		for _, bad := range []tuple.Tuple{{0.5, 0.5}, {0.1, 0.2, 0.3, 0.4}, {}} {
			for _, split := range [][]mapreduce.Record{{rec(bad)}, {good, rec(bad)}, {rec(bad), good}} {
				if err := mapThrough(eng, m, split...); err == nil {
					t.Errorf("%s accepted a %d-dimensional record in a split of %d", name, len(bad), len(split))
				}
				if err := mapThrough(eng, m, good); err != nil {
					t.Errorf("%s after a bad split: %v", name, err)
				}
			}
		}
		if err := mapThrough(eng, m, mapreduce.Record{Value: []byte{3, 1, 2}}); err == nil {
			t.Errorf("%s accepted a truncated record", name)
		}
	}
}
