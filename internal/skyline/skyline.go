// Package skyline implements the centralized skyline kernels: the
// block-nested-loop insertion of Algorithm 4 (InsertTuple), the BNL
// skyline [Börzsönyi et al., ICDE 2001], the sort-filter-skyline variant
// with presorting [Chomicki et al., ICDE 2003] and a naive O(n²)
// reference used by tests. Algorithm 5, the cross-partition false-positive
// elimination, is comparePartitions in mrskyline/internal/core, over
// window.FilterOn.
//
// The MapReduce tasks do not call BNL or SFS: a task inserts its rows one
// by one into the columnar windows of mrskyline/internal/skyline/window,
// the production dominance hot path. BNL and SFS are standalone kernels
// on the same windows, and InsertTuple is retained as the scalar
// reference the window package's differential tests compare against, pair
// for pair.
package skyline

import (
	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// Count tallies tuple-dominance comparisons. It is an alias of the window
// kernel's counter so scalar and columnar call sites share one accounting
// unit. A nil *Count is valid and counts nothing; tasks aggregate into
// shared counters at the end.
type Count = window.Count

// InsertTuple implements Algorithm 4: it merges tuple t into the local
// skyline window s, dropping t if dominated and evicting any window tuples
// t dominates. It returns the updated window. The window slice is modified
// in place and must not be shared.
//
// The window must be dominance-free (no element dominating another), which
// InsertTuple itself maintains. Duplicate handling follows Definition 1:
// equal tuples do not dominate each other, so duplicates of a skyline
// tuple are all retained.
//
// InsertTuple is the scalar reference implementation of the columnar
// window.Window.Insert: the two must agree on the resulting window —
// contents and order — and on the exact DominanceTests advance for every
// call. The window package's differential tests enforce this.
func InsertTuple(t tuple.Tuple, s tuple.List, c *Count) tuple.List {
	out := s[:0]
	for i, u := range s {
		c.Add(1)
		switch tuple.Compare(u, t) {
		case tuple.DomLeft:
			// u dominates t: discard t. By transitivity and the
			// dominance-free invariant, t cannot have evicted anything
			// before this point, so restoring the untouched tail yields
			// the original window.
			out = append(out, s[i:]...)
			return out
		case tuple.DomRight:
			// t dominates u: evict u.
		default:
			// Incomparable or equal: u stays.
			out = append(out, u)
		}
	}
	return append(out, t)
}

// BNL computes the skyline of data with the block-nested-loop algorithm on
// the columnar window kernel, assuming the window always fits in memory.
func BNL(data tuple.List, c *Count) tuple.List {
	if len(data) == 0 {
		return nil
	}
	w := window.New(len(data[0]))
	for _, t := range data {
		w.Insert(t, c)
	}
	return w.Rows()
}

// SFS computes the skyline with the sort-filter-skyline presorting
// technique: tuples are processed in the window kernel's score order (the
// entry sum, ties broken by coordinates — the sum alone is not enough: two
// sums can round to the same float while one tuple dominates the other),
// which guarantees that no later tuple can dominate an earlier one. Each
// incoming tuple therefore degrades to a pure window membership check — it
// never evicts — halving the comparison work on skyline-heavy inputs.
func SFS(data tuple.List, c *Count) tuple.List {
	if len(data) == 0 {
		return nil
	}
	sorted := make(tuple.List, len(data))
	copy(sorted, data)
	window.SortByScore(sorted)
	w := window.New(len(data[0]))
	for _, t := range sorted {
		if !w.Dominated(t, c) {
			w.Append(t)
		}
	}
	return w.Rows()
}

// Naive computes the skyline by comparing every pair of tuples. It is the
// oracle used by tests and deliberately has no cleverness to inherit a bug
// from.
func Naive(data tuple.List) tuple.List {
	var out tuple.List
	for i, t := range data {
		dominated := false
		for j, u := range data {
			if i == j {
				continue
			}
			if tuple.Dominates(u, t) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, t)
		}
	}
	return out
}
