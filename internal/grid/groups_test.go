package grid_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mrskyline/internal/bitstring"
	"mrskyline/internal/grid"
)

// figure6Bitstring returns the occupancy of the Figure 6 example: non-empty
// partitions p1, p2, p3, p4, p6 of the 3×3 grid.
func figure6Bitstring(t *testing.T) *bitstring.Bitstring {
	t.Helper()
	bs, err := bitstring.Parse("011110100")
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func TestIndependentGroupsFigure6(t *testing.T) {
	// Section 5.2's running example: IG1 = {p3, p6}, IG2 = {p1, p3, p4},
	// IG3 = {p1, p2} — p1 and p3 are replicated across groups.
	g := mustGrid(t, 2, 3)
	groups := g.IndependentGroups(figure6Bitstring(t))
	want := []grid.Group{
		{Seed: 6, Partitions: []int{3, 6}, Cost: 1},
		{Seed: 4, Partitions: []int{1, 3, 4}, Cost: 2},
		{Seed: 2, Partitions: []int{1, 2}, Cost: 1},
	}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("IndependentGroups =\n%+v\nwant\n%+v", groups, want)
	}
}

func TestIndependentGroupsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, cfg := range []struct{ d, n int }{{1, 8}, {2, 5}, {3, 3}, {4, 2}} {
		g := mustGrid(t, cfg.d, cfg.n)
		for trial := 0; trial < 30; trial++ {
			bs := bitstring.New(g.NumPartitions())
			for i := 0; i < bs.Len(); i++ {
				if rng.Intn(3) == 0 {
					bs.Set(i)
				}
			}
			g.Prune(bs) // groups are generated from the pruned bitstring
			groups := g.IndependentGroups(bs)

			// 1. Coverage: every surviving partition appears in ≥1 group.
			covered := map[int]bool{}
			for _, grp := range groups {
				for _, p := range grp.Partitions {
					covered[p] = true
					if !bs.Get(p) {
						t.Fatalf("group %+v contains pruned/empty partition %d", grp, p)
					}
				}
			}
			for _, p := range bs.Indices() {
				if !covered[p] {
					t.Fatalf("surviving partition %d not covered by any group", p)
				}
			}

			// 2. Independence (Definition 5): for each member p, every
			// surviving partition of p.ADR is also in the group.
			for _, grp := range groups {
				members := map[int]bool{}
				for _, p := range grp.Partitions {
					members[p] = true
				}
				for _, p := range grp.Partitions {
					for _, q := range g.ADR(p) {
						if bs.Get(q) && !members[q] {
							t.Fatalf("d=%d n=%d: group seeded at %d not closed: %d ∈ ADR(%d) missing",
								cfg.d, cfg.n, grp.Seed, q, p)
						}
					}
				}
			}

			// 3. Cost convention and seed membership.
			for _, grp := range groups {
				if grp.Cost != len(grp.Partitions)-1 {
					t.Fatalf("group cost %d != len−1 (%d)", grp.Cost, len(grp.Partitions)-1)
				}
				found := false
				for _, p := range grp.Partitions {
					if p == grp.Seed {
						found = true
					}
				}
				if !found {
					t.Fatalf("seed %d missing from its group", grp.Seed)
				}
			}

			// 4. Groups are not subsets of each other (Section 5.2).
			for a := range groups {
				for b := range groups {
					if a != b && isSubset(groups[a].Partitions, groups[b].Partitions) {
						t.Fatalf("group %d ⊆ group %d", a, b)
					}
				}
			}
		}
	}
}

func isSubset(a, b []int) bool {
	set := map[int]bool{}
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}

func TestIndependentGroupsEmpty(t *testing.T) {
	g := mustGrid(t, 2, 3)
	if groups := g.IndependentGroups(bitstring.New(9)); len(groups) != 0 {
		t.Errorf("empty bitstring produced %d groups", len(groups))
	}
}

func TestIndependentGroupsDeterministic(t *testing.T) {
	g := mustGrid(t, 3, 3)
	bs := bitstring.New(27)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 27; i++ {
		if rng.Intn(2) == 0 {
			bs.Set(i)
		}
	}
	a := g.IndependentGroups(bs)
	b := g.IndependentGroups(bs)
	if !reflect.DeepEqual(a, b) {
		t.Error("IndependentGroups is not deterministic")
	}
}

// TestMergeGroupsBucketCountAndCoverage: every group lands in exactly one
// bucket, a bucket's partitions are its groups' union, and bucket IDs are
// their indices. MergeByComputation forms min(r, groups) buckets; the
// inputs after the first are sparse pruned bitstrings whose groups of cost
// 0 (seeds with no surviving ADR partition) must still spread over the
// buckets. MergeByCommunication can form fewer, except on the first input.
func TestMergeGroupsBucketCountAndCoverage(t *testing.T) {
	type input struct {
		g  *grid.Grid
		bs *bitstring.Bitstring
	}
	g := mustGrid(t, 2, 5)
	bs := bitstring.New(25)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 25; i++ {
		if rng.Intn(2) == 0 {
			bs.Set(i)
		}
	}
	inputs := []input{{g, bs}}
	for len(inputs) < 200 {
		g := mustGrid(t, 2+rng.Intn(3), 2+rng.Intn(4))
		bs := bitstring.New(g.NumPartitions())
		density := 0.05 + 0.25*rng.Float64()
		for i := 0; i < bs.Len(); i++ {
			if rng.Float64() < density {
				bs.Set(i)
			}
		}
		inputs = append(inputs, input{g, bs})
	}
	for i, in := range inputs {
		in.g.Prune(in.bs)
		groups := in.g.IndependentGroups(in.bs)
		for _, strat := range []grid.MergeStrategy{grid.MergeByComputation, grid.MergeByCommunication} {
			for r := 1; r <= len(groups)+2; r++ {
				merged := grid.MergeGroups(groups, r, strat)
				wantBuckets := min(r, len(groups))
				if len(merged) != wantBuckets && (strat == grid.MergeByComputation || i == 0 || len(merged) > wantBuckets || len(merged) == 0) {
					t.Fatalf("input %d strat=%v r=%d: %d buckets, want %d", i, strat, r, len(merged), wantBuckets)
				}
				// Each group appears exactly once across buckets.
				seen := 0
				for b, m := range merged {
					if m.ID != b {
						t.Fatalf("input %d strat=%v r=%d: bucket %d has ID %d", i, strat, r, b, m.ID)
					}
					seen += len(m.Groups)
					// Partition union matches member groups.
					union := map[int]bool{}
					for _, grp := range m.Groups {
						for _, p := range grp.Partitions {
							union[p] = true
						}
					}
					if len(union) != len(m.Partitions) {
						t.Fatalf("input %d strat=%v r=%d bucket %d: union size %d != %d", i, strat, r, m.ID, len(union), len(m.Partitions))
					}
					for _, p := range m.Partitions {
						if !union[p] {
							t.Fatalf("partition %d not in union", p)
						}
					}
				}
				if seen != len(groups) {
					t.Fatalf("input %d strat=%v r=%d: %d group placements, want %d", i, strat, r, seen, len(groups))
				}
			}
		}
	}
}

func TestMergeGroupsResponsibility(t *testing.T) {
	g := mustGrid(t, 2, 4)
	bs := bitstring.New(16)
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 30; trial++ {
		for i := 0; i < 16; i++ {
			bs.Clear(i)
			if rng.Intn(2) == 0 {
				bs.Set(i)
			}
		}
		g.Prune(bs)
		groups := g.IndependentGroups(bs)
		if len(groups) == 0 {
			continue
		}
		for r := 1; r <= 5; r++ {
			merged := grid.MergeGroups(groups, r, grid.MergeByComputation)
			owners := map[int]int{}
			for _, m := range merged {
				for p := range m.Responsible {
					if !slices.Contains(m.Partitions, p) {
						t.Fatalf("bucket %d responsible for foreign partition %d", m.ID, p)
					}
					if prev, dup := owners[p]; dup {
						t.Fatalf("partition %d designated to buckets %d and %d", p, prev, m.ID)
					}
					owners[p] = m.ID
				}
			}
			// Every surviving partition has exactly one responsible bucket.
			for _, p := range bs.Indices() {
				if _, ok := owners[p]; !ok {
					t.Fatalf("partition %d has no responsible bucket", p)
				}
			}
		}
	}
}

func TestMergeGroupsLoadBalance(t *testing.T) {
	// LPT on many unit-cost groups must spread them near-evenly.
	groups := make([]grid.Group, 20)
	for i := range groups {
		groups[i] = grid.Group{Seed: i, Partitions: []int{i}, Cost: 1}
	}
	merged := grid.MergeGroups(groups, 4, grid.MergeByComputation)
	for _, m := range merged {
		if m.Cost != 5 {
			t.Errorf("bucket %d cost %d, want 5", m.ID, m.Cost)
		}
	}
}

func TestMergeGroupsDeterministic(t *testing.T) {
	g := mustGrid(t, 3, 3)
	bs := bitstring.New(27)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 27; i++ {
		if rng.Intn(2) == 0 {
			bs.Set(i)
		}
	}
	g.Prune(bs)
	groups := g.IndependentGroups(bs)
	for _, strat := range []grid.MergeStrategy{grid.MergeByComputation, grid.MergeByCommunication} {
		a := grid.MergeGroups(groups, 3, strat)
		b := grid.MergeGroups(groups, 3, strat)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("MergeGroups(%v) is not deterministic", strat)
		}
	}
}

func TestMergeGroupsEmptyAndPanics(t *testing.T) {
	if got := grid.MergeGroups(nil, 3, grid.MergeByComputation); got != nil {
		t.Errorf("merging no groups = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for r=0")
		}
	}()
	grid.MergeGroups([]grid.Group{{Seed: 0, Partitions: []int{0}}}, 0, grid.MergeByComputation)
}

func TestMergeStrategyString(t *testing.T) {
	if grid.MergeByComputation.String() != "computation" ||
		grid.MergeByCommunication.String() != "communication" {
		t.Error("MergeStrategy.String wrong")
	}
	if grid.MergeStrategy(9).String() != "MergeStrategy(9)" {
		t.Error("unknown MergeStrategy.String wrong")
	}
}
