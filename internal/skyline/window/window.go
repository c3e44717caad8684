// Package window implements the columnar block-dominance kernel shared by
// every skyline algorithm in this repository.
//
// A Window stores a local-skyline window as struct-of-arrays []float64
// columns instead of a []tuple.Tuple row slice, and classifies one
// candidate tuple against a block of window tuples per pass over the
// columns using better/worse bitmasks. The column sweep is branch-lean:
// each comparison contributes one bit through a conditional the compiler
// lowers without a data-dependent jump, so the classification throughput
// does not collapse on the unpredictable comparison outcomes that real
// skyline data produces (on anti-correlated inputs every branch of the
// scalar tuple.Compare is a coin flip).
//
// The kernel preserves the scalar reference semantics of
// skyline.InsertTuple / skyline.Filter pair for pair: windows evolve in
// the same order, produce the same contents, and Count.DominanceTests
// advances by exactly the same amounts — including inside the block that
// terminates a scan, where the mask's trailing-zero position recovers the
// index at which the scalar loop would have stopped. Differential tests
// in this package fuzz that equivalence.
//
// order.go adds what the grid algorithms of internal/core build on top:
// windows sorted by a linear extension of dominance (Order, MergeRuns), so
// sorted runs merge without evictions, and FilterOn, which restricts a
// window-to-window test to the dimensions a caller has not already decided
// and cuts each scan short on the candidates' sums over those dimensions.
// Insert, Dominated and FilterBy never look at a window's order.
package window

import (
	"fmt"
	"math/bits"

	"mrskyline/internal/tuple"
)

// BlockSize is the number of window tuples classified per pass over the
// columns. 16 keeps a block's slice of one column inside two cache lines
// while amortizing the per-block mask bookkeeping.
const BlockSize = 16

// Count tallies tuple-pair dominance classifications. A nil *Count is
// valid and counts nothing. It is the unit the paper's Section 6 cost
// model estimates, so the columnar kernel counts pairs classified —
// including block-masked ones — exactly as the scalar reference loop
// does.
type Count struct {
	// DominanceTests is the number of tuple-pair dominance evaluations.
	DominanceTests int64
}

// Add adds n pair classifications to the counter; nil-safe.
func (c *Count) Add(n int64) {
	if c != nil {
		c.DominanceTests += n
	}
}

// Window is a dominance-free local-skyline window in columnar layout:
// cols[k][i] holds tuple i's value on dimension k, and rows[i] is the
// original tuple handle (the algorithms emit tuples, so the row view is
// kept alongside the columns). The zero Window is not usable; create
// with New or FromList. A nil *Window is a valid empty read-only window.
type Window struct {
	dim  int
	cols [][]float64
	rows tuple.List
	// evicts is the per-block eviction mask scratch reused across Inserts.
	evicts []uint32
}

// New returns an empty window for dim-dimensional tuples.
func New(dim int) *Window {
	if dim <= 0 {
		panic(fmt.Sprintf("window: invalid dimensionality %d", dim))
	}
	return &Window{dim: dim, cols: make([][]float64, dim)}
}

// FromList columnarizes an existing tuple list into a window without any
// dominance testing — the caller asserts l is dominance-free (every list
// in this repository is built through InsertTuple or a Window). The
// window references l's tuples but not the slice itself.
func FromList(dim int, l tuple.List) *Window {
	w := New(dim)
	for _, t := range l {
		w.Append(t)
	}
	return w
}

// Len returns the number of tuples in the window; nil-safe.
func (w *Window) Len() int {
	if w == nil {
		return 0
	}
	return len(w.rows)
}

// Dim returns the window's dimensionality.
func (w *Window) Dim() int { return w.dim }

// Rows returns the window's tuples in window order — insertion order, or
// score order after Order or MergeRuns. The slice is the
// window's live backing store: it is invalidated by the next mutating
// call, and appending to or reordering it corrupts the window. Callers
// either treat it as a read-only snapshot or take ownership of a window
// they will no longer mutate. Nil-safe.
func (w *Window) Rows() tuple.List {
	if w == nil {
		return nil
	}
	return w.rows
}

// At returns the i-th tuple of the window.
func (w *Window) At(i int) tuple.Tuple { return w.rows[i] }

// Contains reports whether the window holds a tuple equal to t — same
// values on every dimension. It is a pure membership scan: no dominance
// classification happens and no counters advance (equality is not a
// dominance test under Definition 1). The incremental maintainer uses it
// to decide whether a deleted tuple was part of a cell's local skyline.
// Nil-safe.
func (w *Window) Contains(t tuple.Tuple) bool {
	if w == nil {
		return false
	}
	for _, u := range w.rows {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

// Reset empties the window in place, retaining the column and row capacity
// for reuse. Callers that rebuild a window from scratch repeatedly (the
// delete-repair path of the incremental maintainer) avoid reallocating its
// backing arrays each time.
func (w *Window) Reset() {
	for k := range w.cols {
		w.cols[k] = w.cols[k][:0]
	}
	w.rows = w.rows[:0]
}

// Append adds t to the window without any dominance checks. It is the
// fast path for callers that already know t belongs: SFS processes
// tuples in monotone-score order, so a tuple that survives the
// membership check can never be evicted and never evicts (sorted-order
// early termination), and FromList trusts its input.
func (w *Window) Append(t tuple.Tuple) {
	if len(t) != w.dim {
		panic(fmt.Sprintf("window: tuple dimensionality %d does not match window d=%d", len(t), w.dim))
	}
	for k := 0; k < w.dim; k++ {
		w.cols[k] = append(w.cols[k], t[k])
	}
	w.rows = append(w.rows, t)
}

// b2u converts a comparison outcome to a mask bit. The compiler lowers
// this pattern to a flag-materializing instruction rather than a jump,
// which is what keeps the block sweep branch-lean.
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// fullMask has one bit per lane of a complete block.
const fullMask = uint32(1)<<BlockSize - 1

// masks16 classifies tv against one full-block column slice, returning
// the 16-lane masks of tv < col[i] (less) and tv > col[i] (greater).
// The constant indices and constant shift amounts are what make the
// kernel fast: the compiler emits sixteen independent
// load/compare/set chains with no bounds checks, no variable shifts,
// and no data-dependent branch, so the comparisons schedule at full ILP
// width regardless of their outcomes. Each column value is loaded once
// and feeds both masks; the masks accumulate over four independent
// chains apiece so no single OR chain serializes the block.
func masks16(col *[BlockSize]float64, tv float64) (less, greater uint32) {
	var l0, l1, l2, l3, g0, g1, g2, g3 uint32
	v0, v1, v2, v3 := col[0], col[1], col[2], col[3]
	l0 = b2u(tv < v0) | b2u(tv < v1)<<1 | b2u(tv < v2)<<2 | b2u(tv < v3)<<3
	g0 = b2u(tv > v0) | b2u(tv > v1)<<1 | b2u(tv > v2)<<2 | b2u(tv > v3)<<3
	v0, v1, v2, v3 = col[4], col[5], col[6], col[7]
	l1 = b2u(tv < v0)<<4 | b2u(tv < v1)<<5 | b2u(tv < v2)<<6 | b2u(tv < v3)<<7
	g1 = b2u(tv > v0)<<4 | b2u(tv > v1)<<5 | b2u(tv > v2)<<6 | b2u(tv > v3)<<7
	v0, v1, v2, v3 = col[8], col[9], col[10], col[11]
	l2 = b2u(tv < v0)<<8 | b2u(tv < v1)<<9 | b2u(tv < v2)<<10 | b2u(tv < v3)<<11
	g2 = b2u(tv > v0)<<8 | b2u(tv > v1)<<9 | b2u(tv > v2)<<10 | b2u(tv > v3)<<11
	v0, v1, v2, v3 = col[12], col[13], col[14], col[15]
	l3 = b2u(tv < v0)<<12 | b2u(tv < v1)<<13 | b2u(tv < v2)<<14 | b2u(tv < v3)<<15
	g3 = b2u(tv > v0)<<12 | b2u(tv > v1)<<13 | b2u(tv > v2)<<14 | b2u(tv > v3)<<15
	return l0 | l1 | l2 | l3, g0 | g1 | g2 | g3
}

// classifyBlock classifies candidate t against the bn window tuples
// starting at base, returning bitmasks over the block: bit i of better
// (worse) is set when t is strictly better (worse) than tuple base+i on
// at least one dimension. Once every pair in the block has both bits set
// the remaining columns cannot change any classification and the sweep
// stops early.
func (w *Window) classifyBlock(t tuple.Tuple, base, bn int) (better, worse uint32) {
	if bn == BlockSize {
		for k := 0; k < w.dim; k++ {
			l, g := masksBlock((*[BlockSize]float64)(w.cols[k][base:]), t[k])
			better |= l
			worse |= g
			if better&worse == fullMask {
				break // every pair already incomparable
			}
		}
		return better, worse
	}
	full := uint32(1)<<uint(bn) - 1
	for k := 0; k < w.dim; k++ {
		col := w.cols[k][base : base+bn : base+bn]
		tv := t[k]
		var bb, ww uint32
		for i, v := range col {
			bb |= b2u(tv < v) << uint(i)
			ww |= b2u(tv > v) << uint(i)
		}
		better |= bb
		worse |= ww
		if better&worse == full {
			break
		}
	}
	return better, worse
}

// firstDominator scans the n candidates of the column view cols for the
// first that dominates tv, returning its index (-1 if none) and the number
// of pairs the scan classified: every candidate up to and including the
// dominator, as the scalar loop counts. cols is a column view of the
// candidates — a window's own columns, or a selection of them — and tv the
// tested tuple's values on the same columns. A candidate dominates when it
// is ≤ tv on every column and, if strict, < on at least one; non-strict is
// the projected test of FilterOn, where the strict dimension is known to
// lie outside the view.
//
// It is the membership-check variant of classifyBlock: it only needs the
// lanes tv never beats, so a block's sweep additionally stops as soon as tv
// is strictly better than every candidate of the block on some column seen
// so far — none of them can dominate tv then.
//
// When sums is non-nil it holds the candidates' sums over the view's
// columns in ascending order and ts is tv's: the scan ends at the first
// block that opens with a sum strictly above ts, because a candidate that
// is ≤ tv on every column cannot sum higher. Ties are tested — rounding can
// make the sums of a dominating pair equal.
func firstDominator(cols [][]float64, n int, sums []float64, tv []float64, ts float64, strict bool) (idx, pairs int) {
	base, tv := 0, tv[:len(cols)]
blocks:
	for ; base+BlockSize <= n; base += BlockSize {
		if sums != nil && sums[base] > ts {
			return -1, base
		}
		var better, worse uint32
		for e, col := range cols {
			l, g := masksBlock((*[BlockSize]float64)(col[base:]), tv[e])
			better |= l
			worse |= g
			if better == fullMask {
				continue blocks // tv beats every candidate somewhere: no dominator here
			}
		}
		if dom := dominators(better, worse, fullMask, strict); dom != 0 {
			i := base + bits.TrailingZeros32(dom)
			return i, i + 1
		}
	}
	if base == n || sums != nil && sums[base] > ts {
		return -1, base
	}
	// The partial last block, lane by lane.
	var better, worse uint32
	full := uint32(1)<<uint(n-base) - 1
	for e, col := range cols {
		v := tv[e]
		var bb, ww uint32
		for i, u := range col[base:n:n] {
			bb |= b2u(v < u) << uint(i)
			ww |= b2u(v > u) << uint(i)
		}
		better |= bb
		worse |= ww
		if better == full {
			break
		}
	}
	if dom := dominators(better, worse, full, strict); dom != 0 {
		i := base + bits.TrailingZeros32(dom)
		return i, i + 1
	}
	return -1, n
}

// dominators turns a block's masks into the lanes that dominate the tested
// tuple: never beaten by it and, if strict, beating it somewhere.
func dominators(better, worse, full uint32, strict bool) uint32 {
	dom := full &^ better
	if strict {
		dom &= worse
	}
	return dom
}

// Insert implements Algorithm 4 against the columnar window: t is
// dropped when a window tuple dominates it, window tuples t dominates
// are evicted, and t is appended otherwise. It reports whether t entered
// the window.
//
// The window must be dominance-free, which Insert itself maintains.
// Counting matches the scalar reference exactly: one test per window
// tuple examined, where a scan that a dominator terminates counts only
// the pairs up to and including the dominator — the block mask's
// trailing-zero position recovers that index. As in the scalar path,
// when a dominator exists the dominance-free invariant guarantees t has
// evicted nothing (a tuple dominated by a window tuple cannot dominate
// another window tuple, by transitivity), so stopping at the dominating
// block leaves the window untouched.
func (w *Window) Insert(t tuple.Tuple, c *Count) bool {
	if len(t) != w.dim {
		panic(fmt.Sprintf("window: tuple dimensionality %d does not match window d=%d", len(t), w.dim))
	}
	n := len(w.rows)
	nBlocks := (n + BlockSize - 1) / BlockSize
	if cap(w.evicts) < nBlocks {
		w.evicts = make([]uint32, nBlocks)
	}
	evicts := w.evicts[:nBlocks]
	anyEvict := false
	pairs := int64(n)
	inserted := true
	for b := 0; b < nBlocks; b++ {
		base := b * BlockSize
		bn := n - base
		if bn > BlockSize {
			bn = BlockSize
		}
		better, worse := w.classifyBlock(t, base, bn)
		if dom := worse &^ better; dom != 0 {
			// A window tuple dominates t: the scalar loop stops at the
			// first such tuple, having examined exactly the pairs before
			// and including it.
			pairs = int64(base + bits.TrailingZeros32(dom) + 1)
			inserted = false
			break
		}
		if ev := better &^ worse; ev != 0 {
			evicts[b] = ev
			anyEvict = true
		} else {
			evicts[b] = 0
		}
	}
	c.Add(pairs)
	if inserted {
		if anyEvict {
			w.compactEvicted(n)
		}
		w.Append(t)
	}
	return inserted
}

// compactEvicted removes the rows whose bits are set in the eviction
// scratch, preserving order, over the first n rows.
func (w *Window) compactEvicted(n int) {
	out := 0
	for i := 0; i < n; i++ {
		if w.evicts[i/BlockSize]&(1<<uint(i%BlockSize)) != 0 {
			continue
		}
		w.move(out, i)
		out++
	}
	w.truncate(out)
}

// move copies row i into slot out ≤ i; with truncate it is the
// order-preserving compaction every removal in this package uses, which is
// why a window put in score order stays in it.
func (w *Window) move(out, i int) {
	if out == i {
		return
	}
	w.rows[out] = w.rows[i]
	for k := 0; k < w.dim; k++ {
		w.cols[k][out] = w.cols[k][i]
	}
}

// truncate keeps the first n rows.
func (w *Window) truncate(n int) {
	w.rows = w.rows[:n]
	for k := 0; k < w.dim; k++ {
		w.cols[k] = w.cols[k][:n]
	}
}

// Dominated reports whether any window tuple dominates t — the pure
// membership check that SFS insertion degrades to under sorted-order
// early termination, and the inner operation of Filter. Counting matches
// the scalar loop: one test per tuple examined, stopping at the first
// dominator.
func (w *Window) Dominated(t tuple.Tuple, c *Count) bool {
	if w == nil {
		return false
	}
	if len(t) != w.dim {
		panic(fmt.Sprintf("window: tuple dimensionality %d does not match window d=%d", len(t), w.dim))
	}
	idx, pairs := firstDominator(w.cols, len(w.rows), nil, t, 0, true)
	c.Add(int64(pairs))
	return idx >= 0
}

// FilterBy removes from w every tuple dominated by a tuple of by,
// preserving order — the inner operation of ComparePartitions
// (Algorithm 5, line 3) as a window-to-window pass. w and by may be the
// same window only if w is dominance-free (then nothing is removed).
func (w *Window) FilterBy(by *Window, c *Count) {
	if by.Len() == 0 || w.Len() == 0 {
		return
	}
	if w.dim != by.dim {
		panic(fmt.Sprintf("window: dimensionality mismatch %d vs %d", w.dim, by.dim))
	}
	out := 0
	for i, t := range w.rows {
		if by.Dominated(t, c) {
			continue
		}
		w.move(out, i)
		out++
	}
	w.truncate(out)
}
