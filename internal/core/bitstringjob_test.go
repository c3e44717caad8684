package core

import (
	"bytes"
	"fmt"
	"testing"

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

// TestChoosePPDMatchesReference holds the one-pass Section 3.3 job to what
// it replaces: a separate fixed-grid bitstring job per candidate,
// grid.ChoosePPD on their occupied-partition counts, and the winner's pruned
// bitstring. PPD, bitstring bytes and both exact counters must agree.
func TestChoosePPDMatchesReference(t *testing.T) {
	const card = 1500
	for _, dist := range []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated} {
		for _, d := range []int{1, 2, 3, 5} {
			for seed := int64(0); seed < 10; seed++ {
				data := datagen.Generate(dist, card, d, seed)
				cfg := internalTestConfig(t)
				input := mapreduce.TupleInput(data)
				name := fmt.Sprintf("%v/d%d/seed%d", dist, d, seed)

				rho := make(map[int]int)
				for _, j := range ppdCandidates(card, d, cfg.MaxPPDCandidates) {
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
			}
		}
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
// survives the scratch decode, for records narrower and wider than d.
func TestJobOneMapFnRejectsDimension(t *testing.T) {
	ladder, err := grid.NewLadder(3, []int{2, 4}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]mapreduce.Mapper{
		"ppd-select":    newPPDSelectMapper(&Config{}, ladder),
		"bitstring-gen": newBitstringMapper(&Config{}, ladder.Grid(0)),
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
