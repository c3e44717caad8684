package window

import (
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

// sortKey is one row of a sort: its score and where the row is — its
// position before the sort and, when MergeRuns sorts several lists at once,
// which of them it is in.
type sortKey struct {
	sum      float64
	idx, run int32
}

// Scratch holds the buffers ordering and projected filtering work in. One
// task owns one Scratch and passes it to every call it makes, so no window
// and no pair of windows allocates its own; the zero value is ready. Not
// safe for concurrent use.
type Scratch struct {
	keys   []sortKey
	rows   tuple.List
	merged []sortKey   // MergeRuns' second key buffer
	ends   []int       // MergeRuns' run boundaries
	win    *Window     // MergeRuns' fold target, copied out at its final size
	vals   []float64   // one column during a permutation; w's E-sums in FilterOn
	tv     []float64   // the tested tuple's values on the view's columns
	view   [][]float64 // column view of by: its own columns, or gathered ones
	cols   [][]float64 // backing of gathered columns, one per view position
	sums   []float64   // by's E-sums: all of them, then the candidates' in order
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

// sortKeys sorts keys by (sum, original position). Most windows are a few
// dozen tuples, where an insertion sort with the comparison inlined beats
// the generic sort's call per comparison several times over.
func sortKeys(keys []sortKey) {
	if len(keys) > 4*BlockSize {
		slices.SortFunc(keys, func(a, b sortKey) int {
			switch {
			case a.sum < b.sum:
				return -1
			case a.sum > b.sum:
				return 1
			}
			return int(a.idx - b.idx)
		})
		return
	}
	for i := 1; i < len(keys); i++ {
		k, j := keys[i], i
		for ; j > 0 && (k.sum < keys[j-1].sum || k.sum == keys[j-1].sum && k.idx < keys[j-1].idx); j-- {
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
	sortKeys(keys)
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j].sum == keys[i].sum {
			j++
		}
		if j-i > 1 {
			slices.SortStableFunc(keys[i:j], func(a, b sortKey) int {
				return slices.Compare(rows[a.idx], rows[b.idx])
			})
		}
		i = j
	}
	return true
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

// MergeRuns merges runs, each in score order, into one dominance-free
// window in score order — sort-filter-skyline over presorted input. A
// tuple is appended when no tuple already in the window dominates it;
// nothing that sorts later can dominate it (Before is a linear extension
// of dominance), so the window never evicts and never compacts. Every run
// is checked against the order before anything is merged: a run out of
// order yields ErrRunOrder, never a window that silently kept a dominated
// tuple. Runs are merged pairwise, neighbours first and the earlier run
// first on ties, so k runs of n tuples in all cost n·log k comparisons and
// the result is deterministic. The window it returns is drawn from pl.
func MergeRuns(dim int, runs []tuple.List, pl *Pool, sc *Scratch, c *Count) (*Window, error) {
	keys, ends := sc.keys[:0], sc.ends[:0]
	for r, run := range runs {
		for i, t := range run {
			s := Score(t)
			if i > 0 && Before(s, t, keys[len(keys)-1].sum, run[i-1]) {
				return nil, ErrRunOrder
			}
			keys = append(keys, sortKey{sum: s, idx: int32(i), run: int32(r)})
		}
		if len(run) > 0 {
			ends = append(ends, len(keys))
		}
	}
	sc.keys, sc.merged = keys, grow(sc.merged, len(keys))
	from, to := keys, sc.merged
	for ; len(ends) > 1; from, to = to, from {
		start, n := 0, 0
		for i := 0; i < len(ends); i += 2 {
			mid, end := ends[i], ends[i]
			if i+1 < len(ends) {
				end = ends[i+1]
			}
			mergeKeys(to[start:end], from[start:mid], from[mid:end], runs)
			ends[n] = end
			start, n = end, n+1
		}
		ends = ends[:n]
	}
	sc.ends = ends
	// Fold into the scratch's window, whose columns have grown to the task's
	// largest merge, and hand out a copy reserved once at the final size: a
	// merged window costs what it holds, not what its growth or a guess of
	// its size would.
	if sc.win == nil || sc.win.dim != dim {
		sc.win = New(dim)
	}
	w := sc.win
	w.Reset()
	for _, k := range from {
		if t := runs[k.run][k.idx]; !w.Dominated(t, c) {
			w.Append(t)
		}
	}
	out := pl.Get(dim)
	out.reserve(len(w.rows))
	out.rows = append(out.rows, w.rows...)
	for k, col := range w.cols {
		out.cols[k] = append(out.cols[k], col...)
	}
	out.pad()
	clear(w.rows) // hold no tuple beyond the call
	return out, nil
}

// Dominators columnarizes each of parts — one partition's runs, each an
// encoded tuple list of dim-dimensional tuples in score order — into a
// window of all their tuples' values, in run order, straight from the
// bytes: no tuple is decoded into its own storage and none is dominance
// tested. Such a window may hold dominated tuples, and its rows are nil
// tuples from one slice all the windows share, so it pins nothing: it is fit
// only to be the by of FilterOn, and a Pool refuses it. The windows'
// columns share one exact-size backing array. Runs are checked against the
// order as MergeRuns checks them; at the first run out of order Dominators
// returns the windows of the parts before that run's, and ErrRunOrder. A run
// that is not a well-formed list fails it before any window is built.
func Dominators(dim int, parts [][][]byte) ([]Window, error) {
	sizes, lanes, most := make([]int, len(parts)), 0, 0
	for i, runs := range parts {
		for _, run := range runs {
			n, _, err := tuple.ScanList(run, nil, nil)
			if err != nil {
				return nil, err
			}
			sizes[i] += n
		}
		lanes, most = lanes+blocks(sizes[i])*BlockSize, max(most, sizes[i])
	}
	ws, heads := make([]Window, len(parts)), make([][]float64, dim*len(parts))
	buf, rows := make([]float64, dim*lanes), make(tuple.List, most)
	t, prev := make(tuple.Tuple, dim), make(tuple.Tuple, 0, dim)
	for i, runs := range parts {
		w, m := &ws[i], sizes[i]
		c := blocks(m) * BlockSize
		w.dim, w.cols, w.shared = dim, heads[i*dim:(i+1)*dim], true
		for k := range w.cols {
			w.cols[k] = buf[k*c : k*c+m : (k+1)*c]
		}
		j := 0
		for _, run := range runs {
			prev = prev[:0]
			_, _, err := tuple.ScanList(run, t, func(u tuple.Tuple) error {
				if len(prev) > 0 && Before(Score(u), u, Score(prev), prev) {
					return ErrRunOrder
				}
				for k, col := range w.cols {
					col[j] = u[k]
				}
				j, prev = j+1, append(prev[:0], u...)
				return nil
			})
			if err != nil {
				return ws[:i], err
			}
		}
		w.rows, buf = rows[:m:m], buf[dim*c:]
		w.pad()
	}
	return ws, nil
}

// mergeKeys merges the score-ordered key runs a and b into dst, a's key
// first when neither sorts before the other. Tuples are only looked at when
// two scores tie.
func mergeKeys(dst, a, b []sortKey, runs []tuple.List) {
	for i := range dst {
		switch {
		case len(a) == 0:
			dst[i], b = b[0], b[1:]
		case len(b) == 0 || a[0].sum < b[0].sum:
			dst[i], a = a[0], a[1:]
		case b[0].sum < a[0].sum || Before(b[0].sum, runs[b[0].run][b[0].idx], a[0].sum, runs[a[0].run][a[0].idx]):
			dst[i], b = b[0], b[1:]
		default:
			dst[i], a = a[0], a[1:]
		}
	}
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
	sc.tv = grow(sc.tv, len(dims))
	tv, out, end := sc.tv, 0, blocks(n)
	for i, t := range w.rows {
		for e, k := range dims {
			tv[e] = t[k]
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
	lo, hi := 0, blocks(len(sums))
	for lo < hi {
		if mid := (lo + hi) / 2; sums[mid*BlockSize] > ts {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
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
	sc.sums = grow(sc.sums, len(by.rows))
	keys := sc.keys[:0]
	for i, s := range sumColumns(sc.sums, by.cols, dims) {
		if s <= maxT {
			keys = append(keys, sortKey{sum: s, idx: int32(i)})
		}
	}
	sc.keys = keys
	sortKeys(keys)
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
		for i := range col {
			col[i] = inf
			if i < len(keys) {
				col[i] = src[keys[i].idx]
			}
		}
		sc.cols[e] = col
		view = append(view, col[:len(keys)])
	}
	return view, sums
}
