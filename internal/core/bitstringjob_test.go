package core

import (
	"bytes"
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

// TestChoosePPDMatchesReference holds the one-pass Section 3.3 job, its
// dead-candidate rule included, to what it replaces: a fixed-grid bitstring
// job per candidate, grid.ChoosePPD on their occupied-partition counts, and
// the winner's pruned bitstring. PPD, bitstring bytes, NonEmpty and both
// exact counters must agree, and the job may shuffle no more than the same
// job whose mappers emit every candidate. Rows come in three layouts: as
// generated; sorted, so that some splits fill a candidate and others never
// do; and copies of one row but the last, so that at d ≥ 2 no split fills
// one.
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

// checkChoosePPD runs ChoosePPDAndBitstring over rows and checks it against
// the per-candidate reference and the emit-every-candidate job. It reports
// whether the job shuffled less than the latter.
func checkChoosePPD(t *testing.T, name string, cfg *Config, rows tuple.List) bool {
	t.Helper()
	d, card := rows.Dim(), len(rows)
	input := mapreduce.TupleInput(rows)
	candidates := ppdCandidates(card, d, cfg.MaxPPDCandidates)

	rho := make(map[int]int)
	for _, j := range candidates {
		g, err := cfg.newGrid(d, j)
		if err != nil {
			t.Fatal(err)
		}
		occ, err := BuildBitstring(cfg, g, input, true)
		if err != nil {
			t.Fatalf("%s: candidate %d: %v", name, j, err)
		}
		rho[j] = occ.NonEmpty
	}
	best := grid.ChoosePPD(card, d, rho)
	g, err := cfg.newGrid(d, best)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildBitstring(cfg, g, input, false)
	if err != nil {
		t.Fatal(err)
	}

	got, err := ChoosePPDAndBitstring(cfg, d, card, input, false)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got.PPD != best || got.Grid.PPD() != best || !got.AutoPPD {
		t.Fatalf("%s: chose PPD %d (grid %d), reference %d", name, got.PPD, got.Grid.PPD(), best)
	}
	if !bytes.Equal(got.Bitstring.Encode(), want.Bitstring.Encode()) {
		t.Fatalf("%s: bitstring differs from the reference at PPD %d", name, best)
	}
	if got.NonEmpty != rho[best] {
		t.Fatalf("%s: NonEmpty %d, reference %d", name, got.NonEmpty, rho[best])
	}
	for _, c := range []string{"bitstring.nonempty", "bitstring.surviving"} {
		if g, w := got.Job.Counters.Get(c), want.Job.Counters.Get(c); g != w {
			t.Fatalf("%s: counter %s = %d, reference %d", name, c, g, w)
		}
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
		NewReducer:  func() mapreduce.Reducer { return newPPDSelectReducer(card, ladder, false) },
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
				emit(encodeKey(ladder.Grid(i).PPD()), local.Encode())
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
	one := len(encodeKey(2)) + len(bitstring.New(8).Encode())
	if n, b := got.Job.Counters.Get(mapreduce.CounterMapOutputRecords), got.Job.Counters.Get(mapreduce.CounterShuffleBytes); n != mappers || b != int64(mappers*one) {
		t.Fatalf("shuffled %d records, %d B; want %d PPD-2 bitstrings, %d B", n, b, mappers, mappers*one)
	}
}

// TestJobOneMapFnAllocs pins the per-record cost the scratch decode buys:
// on the default codec neither job-1 mapper allocates per record.
func TestJobOneMapFnAllocs(t *testing.T) {
	const d = 3
	ladder, err := grid.NewLadder(d, ppdCandidates(150_000, d, 0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := mapreduce.TupleInput(datagen.Generate(datagen.Independent, 512, d, 1)).Records
	for name, m := range map[string]mapreduce.Mapper{
		"ppd-select":    newPPDSelectMapper(&Config{}, ladder),
		"bitstring-gen": newBitstringMapper(&Config{}, ladder.Grid(ladder.Len()-1)),
	} {
		i := 0
		if n := testing.AllocsPerRun(2000, func() {
			if err := m.Map(nil, recs[i%len(recs)], nil); err != nil {
				t.Fatal(err)
			}
			i++
		}); n != 0 {
			t.Errorf("%s MapFn: %v allocs per record, want 0", name, n)
		}
	}
}

// TestJobOneMapFnRejectsDimension: the per-record dimensionality check
// survives the scratch decode, for records narrower and wider than d, and
// survives the PPD-select mapper's coarsest candidate filling, after which
// it locates nothing.
func TestJobOneMapFnRejectsDimension(t *testing.T) {
	ladder, err := grid.NewLadder(3, []int{2, 4}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := newPPDSelectMapper(&Config{}, ladder)
	for c := 0; c < 8; c++ {
		corner := tuple.Tuple{0.25 + 0.5*float64(c>>2&1), 0.25 + 0.5*float64(c>>1&1), 0.25 + 0.5*float64(c&1)}
		if err := full.Map(nil, mapreduce.Record{Value: tuple.Encode(corner)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for name, m := range map[string]mapreduce.Mapper{
		"ppd-select":             newPPDSelectMapper(&Config{}, ladder),
		"ppd-select, PPD 2 full": full,
		"bitstring-gen":          newBitstringMapper(&Config{}, ladder.Grid(0)),
	} {
		for _, bad := range []tuple.Tuple{{0.5, 0.5}, {0.1, 0.2, 0.3, 0.4}, {}} {
			if err := m.Map(nil, mapreduce.Record{Value: tuple.Encode(bad)}, nil); err == nil {
				t.Errorf("%s accepted a %d-dimensional record", name, len(bad))
			}
			if err := m.Map(nil, mapreduce.Record{Value: tuple.Encode(tuple.Tuple{0.1, 0.2, 0.3})}, nil); err != nil {
				t.Errorf("%s after a bad record: %v", name, err)
			}
		}
		if err := m.Map(nil, mapreduce.Record{Value: []byte{3, 1, 2}}, nil); err == nil {
			t.Errorf("%s accepted a truncated record", name)
		}
	}
}
