package window

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"mrskyline/internal/tuple"
)

// Score is the monotone score windows are ordered by: the coordinate sum,
// added in dimension order. Floating-point addition is monotone, so a
// tuple that dominates t never scores above t — but it can score equal
// (the sums of (0.5, 1e-20) and (0.5, 2e-20) both round to 0.5), which is
// why the order is Before and not the score alone.
func Score(t tuple.Tuple) float64 { return t.Sum() }

// Before reports whether tuple a with score sa sorts strictly before tuple
// b with score sb: by score, then by coordinates lexicographically. The
// order is a linear extension of dominance: if a dominates b then
// sa ≤ sb, and when the scores tie the first coordinate on which the two
// differ is a's smaller one. A scan in this order therefore never meets a
// tuple that dominates one it has already passed. Every sort and merge on
// score in this repository compares with this function.
func Before(sa float64, a tuple.Tuple, sb float64, b tuple.Tuple) bool {
	if sa != sb {
		return sa < sb
	}
	for k, v := range a {
		if v != b[k] {
			return v < b[k]
		}
	}
	return false
}

// smallWindow is the by-window length up to which FilterOn sweeps by's own
// columns in place: one block. A block is classified whole, so when by is a
// single block no order of its tuples and no cut can save anything, and the
// selection, sort and gather that the cut needs would be pure overhead. From
// two blocks up the ordered path pays for itself even on data where the cut
// rarely bites (measured on independent 20 000 × 4, the serve-query dataset
// shape, where windows hold a dozen to a few dozen tuples: a constant of one
// block or four is the same time within ±1 % over 16 alternating pairs),
// while on anticorrelated 40 000 × 5 four blocks instead of one costs 19 %
// more dominance tests and 10 % more time.
const smallWindow = BlockSize

// sortKey is one row of a sort: its score and its position before the
// sort.
type sortKey struct {
	sum float64
	idx int32
}

// Scratch holds the buffers ordering and projected filtering work in. One
// task owns one Scratch and passes it to every call it makes, so no window
// and no pair of windows allocates its own; the zero value is ready. Not
// safe for concurrent use.
type Scratch struct {
	keys  []sortKey
	spare []sortKey // sortKeys' second key buffer
	at    []int32   // sortKeys' bucket starts
	rows  tuple.List
	dom   []float64   // the columns Dominators builds
	nils  tuple.List  // the rows Dominators builds: nil tuples
	vals  []float64   // one column during a permutation; w's E-sums in FilterOn
	tv    []float64   // the tested tuple's values on the view's columns
	own   [][]float64 // the filtered window's own columns on the view's dimensions
	view  [][]float64 // column view of by: its own columns, or gathered ones
	cols  [][]float64 // backing of gathered columns, one per view position
	sums  []float64   // by's E-sums: all of them, then the candidates' in order; Dominators' scores
}

// grow returns b resized to n elements, reallocating — to at least twice
// the capacity, since a task meets its windows in no particular order of
// size — only when b is too small; contents are unspecified.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n, max(n, 2*cap(b)))
	}
	return b[:n]
}

// bucketMin is the key count from which sortKeys distributes before it
// sorts.
const bucketMin = 32

// sortKeys sorts keys, which are in ascending idx order, by (sum, idx) with
// an insertion sort: stable, so equal sums keep idx order, and cheapest on
// the few dozen keys of most windows. From bucketMin keys up a stable
// counting sort first spreads the keys over as many buckets, splitting
// [least, greatest sum] evenly, so the insertion sort only moves a key
// within its bucket. (sum − least)·scale never falls as the sum grows, so
// the buckets come in sum order however it rounds.
func (sc *Scratch) sortKeys(keys []sortKey) {
	n, lo, hi := len(keys), math.Inf(1), math.Inf(-1) // no span: no bucket pass
	for i := 0; n >= bucketMin && i < n; i++ {
		if s := keys[i].sum; s < lo {
			lo = s
		}
		if s := keys[i].sum; s > hi {
			hi = s
		}
	}
	if scale := float64(n-1) / (hi - lo); scale > 0 && !math.IsInf(scale, 1) {
		at := grow(sc.at, n+1)
		clear(at)
		for _, k := range keys {
			at[int((k.sum-lo)*scale)+1]++
		}
		for b := 1; b < n; b++ {
			at[b] += at[b-1]
		}
		sc.spare, sc.at = grow(sc.spare, n), at
		for _, k := range keys {
			b := int((k.sum - lo) * scale)
			sc.spare[at[b]] = k
			at[b]++
		}
		copy(keys, sc.spare)
	}
	for i := 1; i < n; i++ {
		k, j := keys[i], i
		for ; j > 0 && k.sum < keys[j-1].sum; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
}

// sortRows fills sc.keys with rows' scores and sorts them into score order
// (Before, then original position, so equal tuples keep their order). It
// reports false, leaving keys unsorted, when rows are already in order —
// the common case for a run a sorting kernel produced.
func (sc *Scratch) sortRows(rows tuple.List) bool {
	sc.keys = grow(sc.keys, len(rows))
	inOrder := true
	for i, t := range rows {
		s := Score(t)
		sc.keys[i] = sortKey{sum: s, idx: int32(i)}
		if inOrder && i > 0 && Before(s, t, sc.keys[i-1].sum, rows[i-1]) {
			inOrder = false
		}
	}
	if inOrder {
		return false
	}
	// Scores almost never tie, so sort on them alone and then put each
	// group of equal scores — where a dominating pair can hide — in
	// coordinate order.
	keys := sc.keys
	sc.sortKeys(keys)
	sortTies(keys, func(i, j int32) int { return slices.Compare(rows[i], rows[j]) })
	return true
}

// sortTies puts every run of equal sums in keys, which are in score order,
// into coordinate order, stably; compare compares tuples i and j
// coordinate by coordinate.
func sortTies(keys []sortKey, compare func(i, j int32) int) {
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j].sum == keys[i].sum {
			j++
		}
		if j-i > 1 {
			slices.SortStableFunc(keys[i:j], func(a, b sortKey) int { return compare(a.idx, b.idx) })
		}
		i = j
	}
}

// permuteRows reorders rows by sc.keys.
func (sc *Scratch) permuteRows(rows tuple.List) {
	sc.rows = append(sc.rows[:0], rows...)
	for i, k := range sc.keys {
		rows[i] = sc.rows[k.idx]
	}
	clear(sc.rows) // hold no tuple beyond the call
}

// SortByScore sorts l in place into score order (see Before).
func SortByScore(l tuple.List) {
	var sc Scratch
	if sc.sortRows(l) {
		sc.permuteRows(l)
	}
}

// Order sorts the window into score order (see Before). Order is a
// property of the rows, not a state the window tracks: removals keep it
// (every compaction preserves order), Insert and Append do not look at it,
// and no operation behaves differently for it — MergeRuns checks the runs
// it is given rather than believing them.
func (w *Window) Order(sc *Scratch) {
	if !sc.sortRows(w.rows) {
		return
	}
	sc.permuteRows(w.rows)
	sc.vals = grow(sc.vals, len(w.rows))
	for _, col := range w.cols {
		copy(sc.vals, col)
		for i, k := range sc.keys {
			col[i] = sc.vals[k.idx]
		}
	}
}

// ErrRunOrder is MergeRuns' verdict on a run that is not in score order.
var ErrRunOrder = errors.New("window: run out of score order")

// MergeRuns merges runs — column lists (tuple.AppendColumns) of
// dim-dimensional tuples, each in score order — into one dominance-free
// window in score order: sort-filter-skyline over presorted input. It takes
// the tuples in score order, equal ones in run order as a stable merge
// would, and appends each that no tuple already in the window dominates;
// nothing later can dominate it (Before extends dominance), so the window
// never evicts. A run out of order yields ErrRunOrder before anything is
// merged, never a window that kept a dominated tuple; a malformed run fails
// too. The window is drawn from pl and built from columns (see Dominators).
func MergeRuns(dim int, runs [][]byte, pl *Pool, sc *Scratch, c *Count) (*Window, error) {
	ws, err := Dominators(dim, [][][]byte{runs}, sc) // the runs' columns and, in sc.sums, scores
	if err != nil {
		return nil, err
	}
	cols, n := ws[0].cols, ws[0].Len()
	sums, keys := sc.sums[:n], grow(sc.keys, n)
	sc.keys = keys
	for i, s := range sums {
		keys[i] = sortKey{sum: s, idx: int32(i)}
	}
	sc.sortKeys(keys)
	sortTies(keys, func(i, j int32) int { return compareAt(cols, int(i), int(j)) })
	w, tv := pl.Get(dim), grow(sc.tv, dim)
	sc.tv = tv
	for _, k := range keys {
		for e, col := range cols {
			tv[e] = col[k.idx]
		}
		if !w.Dominated(tv, c) {
			w.push(tv, nil)
		}
	}
	return w, nil
}

// columnize decodes runs — column lists of len(cols)-dimensional tuples,
// each in score order — one after another into cols, whose columns are as
// long as all of them together, and sets sums to their scores. At the first
// run out of order it returns ErrRunOrder. The runs' framing must have been
// checked.
func columnize(cols [][]float64, sums []float64, runs [][]byte) error {
	j := 0
	for _, run := range runs {
		n, body, _, _ := tuple.SplitColumns(run, len(cols))
		s := sums[j : j+n]
		clear(s)
		for k, col := range cols {
			col = col[j : j+n]
			tuple.DecodeColumn(col, body, k)
			for i, v := range col {
				s[i] += v
			}
		}
		for i := j + 1; i < j+n; i++ {
			if sums[i] < sums[i-1] || sums[i] == sums[i-1] && compareAt(cols, i, i-1) < 0 {
				return ErrRunOrder // Before(tuple i, tuple i−1)
			}
		}
		j += n
	}
	return nil
}

// compareAt compares tuples i and j of cols coordinate by coordinate, as
// Before breaks a tie.
func compareAt(cols [][]float64, i, j int) int {
	for _, col := range cols {
		if col[i] != col[j] {
			return cmp.Compare(col[i], col[j])
		}
	}
	return 0
}

// Dominators columnarizes each of parts — one partition's runs, each a
// column list of dim-dimensional tuples in score order — into a window of
// all their tuples' values, in run order: a column copy straight from the
// bytes, with no tuple decoded and none dominance tested. Such a window may
// hold dominated tuples, and its rows are nil tuples from one slice all the
// windows share, so it pins nothing: it is fit only to be the by of
// FilterOn, and a Pool refuses it. The windows' columns share one backing
// array in sc, valid until sc next builds windows (here or in MergeRuns),
// and sc.sums holds the last part's scores. Every run is checked against
// the score order; at the first run out of order Dominators returns the
// windows of the parts before that run's, and ErrRunOrder. A run that is
// not one well-formed column list fails it before any window is built.
func Dominators(dim int, parts [][][]byte, sc *Scratch) ([]Window, error) {
	sizes, lanes, most := make([]int, len(parts)), 0, 0
	for i, runs := range parts {
		for _, run := range runs {
			n, _, m, err := tuple.SplitColumns(run, dim)
			if err == nil && m != len(run) {
				err = fmt.Errorf("window: %d trailing bytes after a run", len(run)-m)
			}
			if err != nil {
				return nil, err
			}
			sizes[i] += n
		}
		lanes, most = lanes+blocks(sizes[i])*BlockSize, max(most, sizes[i])
	}
	ws, heads := make([]Window, len(parts)), make([][]float64, dim*len(parts))
	sc.dom, sc.nils, sc.sums = grow(sc.dom, dim*lanes), grow(sc.nils, most), grow(sc.sums, most)
	buf, rows, sums := sc.dom, sc.nils, sc.sums
	for i, runs := range parts {
		w, m := &ws[i], sizes[i]
		c := blocks(m) * BlockSize
		w.dim, w.cols, w.shared = dim, heads[i*dim:(i+1)*dim], true
		for k := range w.cols {
			w.cols[k] = buf[k*c : k*c+m : (k+1)*c]
		}
		if err := columnize(w.cols, sums, runs); err != nil {
			return ws[:i], err
		}
		w.rows, buf = rows[:m:m], buf[dim*c:]
		w.pad()
	}
	return ws, nil
}

// FilterOn removes from w every tuple t for which some tuple u of by is
// ≤ t on every dimension of dims, preserving order; by must not be w.
// dims is ascending and names the dimensions the caller has not already
// decided: the grid algorithms pass the dimensions on which the cells of
// by and w coincide, having established that on every other dimension all
// of by is strictly below all of w — under that premise the projected test
// is exactly "u dominates t" (Algorithm 5, line 3). When dims names every
// dimension there is no such premise and u must also be < t somewhere:
// plain dominance.
//
// When by is longer than smallWindow its candidates are taken in order of
// their sum over dims (E-sum) and each scan stops at the first block whose
// E-sums exceed t's: on the dimensions two neighbouring cells share, the
// tuples of the lower cell that can dominate anything sum low, and the
// rest are never looked at. A shorter by is swept in place. Count advances
// by the pairs classified in the blocks a scan visited, stopping at the
// first dominator.
func (w *Window) FilterOn(by *Window, dims []int, sc *Scratch, c *Count) {
	if by.Len() == 0 || w.Len() == 0 {
		return
	}
	if w.dim != by.dim {
		panic(fmt.Sprintf("window: dimensionality mismatch %d vs %d", w.dim, by.dim))
	}
	for e, k := range dims {
		if k < 0 || k >= w.dim || e > 0 && k <= dims[e-1] {
			panic(fmt.Sprintf("window: dimensions %v are not ascending within [0,%d)", dims, w.dim))
		}
	}
	if len(dims) == 0 { // by's first tuple already decides every t
		c.Add(int64(w.Len()))
		w.truncate(0)
		return
	}
	strict := len(dims) == w.dim
	// n candidates in the view: all of by, or those gather selected.
	view, n := sc.view[:0], by.Len()
	var sums, tsums []float64
	if n <= smallWindow {
		for _, k := range dims {
			view = append(view, by.cols[k])
		}
	} else {
		// Added in dimension order, exactly as gather adds by's, so the two
		// sides compare bit for bit.
		sc.vals = grow(sc.vals, len(w.rows))
		tsums = sumColumns(sc.vals, w.cols, dims)
		view, sums = sc.gather(by, dims, slices.Max(tsums))
		n = len(sums)
	}
	sc.view = view[:0]
	sc.tv, sc.own = grow(sc.tv, len(dims)), sc.own[:0]
	for _, k := range dims {
		sc.own = append(sc.own, w.cols[k])
	}
	tv, own, out, end := sc.tv, sc.own, 0, blocks(n)
	for i := range w.rows {
		for e, col := range own {
			tv[e] = col[i]
		}
		if sums != nil {
			end = cutBlock(sums, tsums[i])
		}
		if idx := firstDominator(view, n, end, tv, strict); idx >= 0 {
			c.Add(int64(idx + 1))
			continue
		}
		c.Add(int64(min(end*BlockSize, n)))
		w.move(out, i)
		out++
	}
	w.truncate(out)
}

// cutBlock returns how many leading blocks of the ascending sums a scan for
// a tuple summing to ts has to visit: those before the first block that
// opens with a sum strictly above ts, because a candidate that is ≤ the
// tuple on every column cannot sum higher. Ties are kept — rounding can make
// the sums of a dominating pair equal.
func cutBlock(sums []float64, ts float64) int {
	n := blocks(len(sums))
	if n == 0 {
		return 0
	}
	// A branch-free search: base ends on the last block opening at or below
	// ts, if any.
	base := 0
	for n > 1 {
		half := n / 2
		if sums[(base+half)*BlockSize] <= ts {
			base += half
		}
		n -= half
	}
	if sums[base*BlockSize] <= ts {
		return base + 1
	}
	return base
}

// sumColumns sets dst[i] = ((0 + cols[dims[0]][i]) + cols[dims[1]][i]) + ….
func sumColumns(dst []float64, cols [][]float64, dims []int) []float64 {
	clear(dst)
	for _, k := range dims {
		for i, v := range cols[k][:len(dst)] {
			dst[i] += v
		}
	}
	return dst
}

// gather selects the tuples of by whose E-sum does not exceed maxT (no
// other can be ≤ any t on dims), sorts them by E-sum and copies their
// dims columns, in that order, into scratch. It returns the column view and
// the candidates' E-sums; the view's columns are block-padded as a window's
// are.
func (sc *Scratch) gather(by *Window, dims []int, maxT float64) (view [][]float64, sums []float64) {
	sc.sums, sc.keys = grow(sc.sums, len(by.rows)), grow(sc.keys, len(by.rows))
	keys := sc.keys[:0]
	for i, s := range sumColumns(sc.sums, by.cols, dims) {
		if s <= maxT {
			keys = append(keys, sortKey{sum: s, idx: int32(i)})
		}
	}
	sc.keys = keys
	sc.sortKeys(keys)
	sums = sc.sums[:len(keys)] // the keys hold what was read from it
	for i, k := range keys {
		sums[i] = k.sum
	}
	padded, inf := blocks(len(keys))*BlockSize, math.Inf(1)
	view = sc.view[:0]
	for e, k := range dims {
		if e == len(sc.cols) {
			sc.cols = append(sc.cols, nil)
		}
		col, src := grow(sc.cols[e], padded), by.cols[k]
		for i, key := range keys {
			col[i] = src[key.idx]
		}
		for i := len(keys); i < padded; i++ {
			col[i] = inf
		}
		sc.cols[e] = col
		view = append(view, col[:len(keys)])
	}
	return view, sums
}
