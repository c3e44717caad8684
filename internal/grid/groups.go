package grid

import (
	"fmt"
	"sort"

	"mrskyline/internal/bitstring"
)

// This file implements Section 5.2 (generation of independent partition
// groups, Algorithm 7) and Section 5.4 (merging groups when there are more
// groups than reducers, and the responsible-group designation that
// eliminates duplicated skyline output).
//
// Everything here is a pure, deterministic function of the global bitstring
// and the reducer count. The paper has every mapper recompute the groups
// (Algorithm 8, line 11), where "inconsistency of independent groups across
// mappers would cause wrong skyline results on reducers". Here the driver
// forms a job's buckets once and the job's spec carries them to every task,
// so no two tasks can disagree; determinism keeps a plan repeatable.

// Group is one independent partition group (Definition 5): a set of
// partitions closed under the anti-dominating region, so its skyline can be
// computed without looking at any other partition (Lemma 2).
type Group struct {
	// Seed is the partition the group was grown from (the "maximum
	// partition" of Definition 6 in Algorithm 7's traversal order).
	Seed int
	// Partitions lists the group's surviving partitions in ascending index
	// order; it always contains Seed. Partitions may be shared with other
	// groups (replication, Section 5.2).
	Partitions []int
	// Cost is the paper's estimated computation cost for the group:
	// |seed.ADR ∩ surviving partitions| = len(Partitions) − 1
	// (Section 5.4.1).
	Cost int
}

// IndependentGroups implements Algorithm 7. It partitions the surviving
// partitions of bs into independent groups: repeatedly take the remaining
// partition with the largest index as a seed and form the group
// {seed} ∪ (seed.ADR ∩ non-empty partitions of the original bitstring).
// Bits are cleared in a working copy only, so partitions lying in several
// seeds' anti-dominating regions are replicated into each such group, as
// Section 5.2 requires.
//
// The union of all groups covers every surviving partition, and each group
// is a down-set of the coordinate order, hence independent (∀p ∈ PI:
// p.ADR ⊆ PI).
func (g *Grid) IndependentGroups(bs *bitstring.Bitstring) []Group {
	if bs.Len() != g.total {
		panic("grid: bitstring length does not match grid size")
	}
	var groups []Group
	work := bs.Clone()
	for work.Any() {
		seed := work.HighestSet()
		members := []int{seed}
		for _, j := range g.ADR(seed) {
			if bs.Get(j) {
				members = append(members, j)
			}
		}
		sort.Ints(members)
		for _, m := range members {
			if work.Get(m) {
				work.Clear(m)
			}
		}
		groups = append(groups, Group{Seed: seed, Partitions: members, Cost: len(members) - 1})
	}
	return groups
}

// MergeStrategy selects how independent groups are combined when there are
// more groups than reducers (Section 5.4.1).
type MergeStrategy int

const (
	// MergeByComputation balances the reducers' estimated computation
	// costs (the option the paper adopts after its preliminary tests):
	// groups are assigned to the currently cheapest reducer in descending
	// cost order (greedy longest-processing-time scheduling), a cost tie
	// going to the bucket holding fewer groups, so groups of cost 0 still
	// spread over the empty buckets.
	MergeByComputation MergeStrategy = iota
	// MergeByCommunication minimizes replicated traffic: each group joins
	// the reducer bucket with which it shares the most partitions. The
	// paper notes this "does not guarantee the load balance among the
	// reducers"; it can leave buckets empty, and is kept for the ablation
	// benchmark.
	MergeByCommunication
)

// String implements fmt.Stringer for MergeStrategy.
func (s MergeStrategy) String() string {
	switch s {
	case MergeByComputation:
		return "computation"
	case MergeByCommunication:
		return "communication"
	default:
		return fmt.Sprintf("MergeStrategy(%d)", int(s))
	}
}

// MergedGroup is the unit of work sent to one reducer: one or more
// independent groups plus the designation of which partitions this reducer
// is responsible for outputting (Section 5.4.2).
type MergedGroup struct {
	// ID is the bucket's index in MergeGroups' result.
	ID int
	// Groups lists the member groups.
	Groups []Group
	// Partitions is the sorted union of the member groups' partitions.
	Partitions []int
	// Cost is the summed estimated computation cost of the members.
	Cost int
	// Responsible marks the partitions whose local skyline this reducer —
	// and only this reducer — outputs. Partitions replicated into several
	// merged groups are designated to exactly one of them.
	Responsible map[int]bool
}

// MergeGroups distributes the independent groups over r reducers using the
// given strategy, computes each merged group's partition union, and
// designates a single responsible merged group per partition. Empty
// buckets are dropped: under MergeByComputation the result has length
// min(r, len(groups)), under MergeByCommunication it can be shorter. It is
// deterministic for identical inputs.
func MergeGroups(groups []Group, r int, strat MergeStrategy) []MergedGroup {
	if r < 1 {
		panic(fmt.Sprintf("grid: reducer count must be ≥ 1, got %d", r))
	}
	if len(groups) == 0 {
		return nil
	}

	// Deterministic processing order: by descending cost, ties by seed.
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := groups[order[a]], groups[order[b]]
		if ga.Cost != gb.Cost {
			return ga.Cost > gb.Cost
		}
		return ga.Seed < gb.Seed
	})

	nBuckets := r
	if len(groups) < r {
		nBuckets = len(groups)
	}
	buckets := make([]MergedGroup, nBuckets)
	for i := range buckets {
		buckets[i].ID = i
	}
	partsOf := make([]map[int]bool, nBuckets)
	for i := range partsOf {
		partsOf[i] = make(map[int]bool)
	}

	for _, gi := range order {
		grp := groups[gi]
		var target int
		switch strat {
		case MergeByComputation:
			// Cheapest bucket; ties to the one holding fewer groups, then
			// to the lowest ID.
			target = 0
			for b := 1; b < nBuckets; b++ {
				c, t := buckets[b], buckets[target]
				if c.Cost < t.Cost || c.Cost == t.Cost && len(c.Groups) < len(t.Groups) {
					target = b
				}
			}
		case MergeByCommunication:
			// Bucket sharing the most partitions; ties to the cheaper
			// bucket, then to the lowest ID. An empty bucket shares
			// nothing, so a group sharing partitions with a filled bucket
			// joins it and other buckets may stay empty.
			bestOverlap, bestCost := -1, 0
			target = -1
			for b := 0; b < nBuckets; b++ {
				ov := 0
				for _, p := range grp.Partitions {
					if partsOf[b][p] {
						ov++
					}
				}
				if target == -1 || ov > bestOverlap || (ov == bestOverlap && buckets[b].Cost < bestCost) {
					target, bestOverlap, bestCost = b, ov, buckets[b].Cost
				}
			}
		default:
			panic(fmt.Sprintf("grid: unknown merge strategy %d", strat))
		}
		buckets[target].Groups = append(buckets[target].Groups, grp)
		buckets[target].Cost += grp.Cost
		for _, p := range grp.Partitions {
			partsOf[target][p] = true
		}
	}

	// Materialize sorted partition unions, drop empty buckets (only
	// MergeByCommunication leaves any) and renumber the rest densely, then
	// designate responsibility.
	out := buckets[:0]
	for i := range buckets {
		if len(buckets[i].Groups) == 0 {
			continue
		}
		buckets[i].ID = len(out)
		parts := make([]int, 0, len(partsOf[i]))
		for p := range partsOf[i] {
			parts = append(parts, p)
		}
		sort.Ints(parts)
		buckets[i].Partitions = parts
		buckets[i].Responsible = make(map[int]bool, len(parts))
		out = append(out, buckets[i])
	}
	assignResponsibility(out)
	return out
}

// assignResponsibility designates, for every partition, the single merged
// group that outputs its skyline (Section 5.4.2). Among the merged groups
// containing a partition, the one with the minimal estimated computation
// cost is chosen ("intended to not further burden reducers that already
// have higher computation costs"); ties resolve to the lowest bucket ID so
// that mappers and reducers agree.
func assignResponsibility(merged []MergedGroup) {
	owner := make(map[int]int) // partition -> index into merged
	for i := range merged {
		for _, p := range merged[i].Partitions {
			j, seen := owner[p]
			if !seen || merged[i].Cost < merged[j].Cost {
				owner[p] = i
			}
		}
	}
	for p, i := range owner {
		merged[i].Responsible[p] = true
	}
}
