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
// The unit the kernel is called with is a scan, not a block: scanBlocks
// (the membership check behind Dominated, FilterBy, MergeRuns and FilterOn)
// and insertScan (Insert) each sweep a run of blocks in one call, in AVX2
// assembly where the CPU has it and in portable Go otherwise. So that every
// block is a whole one, a window's columns are block-padded (see Window).
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
	"math"
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
// original tuple handle — nil in a window built from columns (MergeRuns,
// Dominators), which holds values, not tuples. The zero Window is not
// usable; create with New or FromList. A nil *Window is a valid empty
// read-only window.
//
// Columns are block-padded: every column has the same capacity, a whole
// number of blocks, and the lanes from Len up to the next block boundary
// hold +Inf, so a scan reads whole blocks only. Append, truncate and reserve
// maintain that; everything else that changes a window goes through them or
// permutes real lanes in place. The +Inf keeps a padding lane out of the
// vector compares' way in the common case, but no result trusts it: a lane
// at or past Len is excluded from every mask by its index.
type Window struct {
	dim  int
	cols [][]float64
	rows tuple.List
	// evicts is the per-block eviction mask scratch reused across Inserts.
	evicts []uint32
	// shared marks a Dominators window, whose backing other windows share:
	// it is never pooled.
	shared bool
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
	w.reserve(len(l))
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
// score order after Order; nil tuples in a window built from columns,
// whose values AppendColumns reads. The slice is the
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

// Reset empties the window in place, retaining the column and row capacity
// for reuse and holding no tuple. Callers that rebuild a window from scratch
// repeatedly (the delete-repair path of the incremental maintainer, a Pool)
// avoid reallocating its backing arrays each time.
func (w *Window) Reset() {
	w.truncate(0)
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
	w.push(t, t)
}

// push appends a tuple's values with row as its handle: the tuple itself,
// or nil in a window built from columns, which holds no tuple.
func (w *Window) push(vals []float64, row tuple.Tuple) {
	n := len(w.rows)
	w.rows = append(w.rows, row)
	if n == cap(w.cols[0]) {
		w.reserve(cap(w.rows)) // the columns grow as append grew the rows
	}
	for k, col := range w.cols {
		col = col[:n+1]
		col[n] = vals[k]
		w.cols[k] = col
	}
	if n%BlockSize == 0 { // the tuple opened a block
		w.pad()
	}
}

// AppendColumns appends the window's column list (tuple.AppendColumns) to
// dst: its values, dimension after dimension, in window order.
func (w *Window) AppendColumns(dst []byte) []byte {
	return tuple.AppendColumns(dst, w.cols)
}

// blocks returns the number of blocks n lanes occupy.
func blocks(n int) int { return (n + BlockSize - 1) / BlockSize }

// reserve gives every column capacity for at least n lanes, rounded up to
// whole blocks, in one backing array, keeping what the columns hold.
func (w *Window) reserve(n int) {
	c := blocks(n) * BlockSize
	if c <= cap(w.cols[0]) {
		return
	}
	buf := make([]float64, w.dim*c)
	for k, col := range w.cols {
		next := buf[k*c : k*c+len(col) : (k+1)*c]
		copy(next, col)
		w.cols[k] = next
	}
	w.pad()
}

// pad restores the padding invariant after the window's length or backing
// changed: the lanes from Len to the next block boundary hold +Inf.
func (w *Window) pad() {
	n, inf := len(w.rows), math.Inf(1)
	for _, col := range w.cols {
		tail := col[n : blocks(n)*BlockSize]
		for i := range tail {
			tail[i] = inf
		}
	}
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

// block returns lanes [b·BlockSize, (b+1)·BlockSize) of a block-padded
// column — slicing up to capacity, since the block may reach past its length
// into the padding.
func block(col []float64, b int) *[BlockSize]float64 {
	return (*[BlockSize]float64)(col[b*BlockSize : (b+1)*BlockSize])
}

// scanPortable is the membership scan: over blocks [first, end) of the
// column view it returns the first block holding a lane that tv never beats
// — a candidate u with u ≤ tv on every column — and the mask of those lanes,
// or (end, 0). Every column of view has end whole blocks of capacity. The
// scan knows nothing of padding or strictness: the caller masks lanes by
// index, decides u ≠ tv on the candidates, and resumes at block+1 when none
// of them counts. A block's sweep stops as soon as tv is strictly better
// than every lane on some column seen so far.
func scanPortable(view [][]float64, tv []float64, first, end int) (int, uint32) {
	tv = tv[:len(view)]
	for b := first; b < end; b++ {
		var better uint32
		for e, col := range view {
			l, _ := masks16(block(col, b), tv[e])
			if better |= l; better == fullMask {
				break
			}
		}
		if better != fullMask {
			return b, fullMask &^ better
		}
	}
	return end, 0
}

// insertScanPortable is the insert scan: it classifies tv against blocks
// [0, end) of cols in both directions, stores in evicts[b] the lanes of
// block b that tv dominates (strictly better somewhere, worse nowhere) and
// stops at the first block holding a lane that dominates tv, returning that
// block and those lanes — (end, 0) if there is none — and the union of the
// evict masks it stored. lastMask has a bit per real lane of block end-1 and
// is applied to that block's masks, so a padding lane is neither evicted nor
// a dominator whatever it holds. Once every lane of a block is both better
// and worse the remaining columns cannot change any classification and the
// block's sweep stops early.
func insertScanPortable(cols [][]float64, tv []float64, evicts []uint32, end int, lastMask uint32) (blk int, dom, evicted uint32) {
	tv, evicts = tv[:len(cols)], evicts[:end]
	for b := range evicts {
		var better, worse uint32
		for k, col := range cols {
			l, g := masks16(block(col, b), tv[k])
			better |= l
			worse |= g
			if better&worse == fullMask {
				break // every pair already incomparable
			}
		}
		if b == end-1 {
			better &= lastMask
			worse &= lastMask
		}
		ev := better &^ worse
		evicts[b] = ev
		evicted |= ev
		if dom = worse &^ better; dom != 0 {
			return b, dom, evicted
		}
	}
	return end, 0, evicted
}

// firstDominator scans the first n lanes of the column view for the first
// candidate that dominates tv, looking no further than block end, and
// returns its index or -1. view is a column view of the candidates — a
// window's own columns, or a selection of them — block-padded, and tv the
// tested tuple's values on the same columns. A candidate dominates when it
// is ≤ tv on every column and, if strict, < on at least one; non-strict is
// the projected test of FilterOn, where the strict dimension is known to
// lie outside the view.
//
// It is one scanBlocks call unless the scan stops on lanes that do not
// count — padding, or under strict an equal duplicate of tv — which is
// decided here, on the rare block that has a candidate at all.
func firstDominator(view [][]float64, n, end int, tv []float64, strict bool) int {
	tv = tv[:len(view)] // the assembly checks no bounds
	for b := 0; b < end; b++ {
		var mask uint32
		if b, mask = scanBlocks(view, tv, b, end); mask == 0 {
			break
		}
		if real := n - b*BlockSize; real < BlockSize {
			mask &= 1<<uint(real) - 1
		}
		for ; mask != 0; mask &= mask - 1 {
			i := b*BlockSize + bits.TrailingZeros32(mask)
			if !strict {
				return i
			}
			for e, col := range view {
				if col[i] != tv[e] {
					return i
				}
			}
		}
	}
	return -1
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
	nBlocks := blocks(n)
	w.evicts = grow(w.evicts, nBlocks)
	lastMask := fullMask >> uint(nBlocks*BlockSize-n)
	blk, dom, evicted := insertScan(w.cols, t, w.evicts, nBlocks, lastMask)
	if dom != 0 {
		// A window tuple dominates t: the scalar loop stops at the first
		// such tuple, having examined exactly the pairs before and
		// including it.
		c.Add(int64(blk*BlockSize + bits.TrailingZeros32(dom) + 1))
		return false
	}
	c.Add(int64(n))
	if evicted != 0 {
		w.compactEvicted(n)
	}
	w.Append(t)
	return true
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
	for _, col := range w.cols {
		col[out] = col[i]
	}
}

// truncate keeps the first n rows; the slots it cuts hold no tuple.
func (w *Window) truncate(n int) {
	clear(w.rows[n:])
	w.rows = w.rows[:n]
	for k := 0; k < w.dim; k++ {
		w.cols[k] = w.cols[k][:n]
	}
	w.pad()
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
	n := len(w.rows)
	idx := firstDominator(w.cols, n, blocks(n), t, true)
	if idx < 0 {
		c.Add(int64(n))
		return false
	}
	c.Add(int64(idx + 1))
	return true
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
