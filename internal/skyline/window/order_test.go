// Tests of score order and projected filtering (order.go). Unlike the
// scalar-parity tests of window_test.go these do not pin which pairs are
// classified — FilterOn's whole point is to classify fewer — only the
// result, against the definition written out as a scalar loop.
package window

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mrskyline/internal/tuple"
)

// palette is the value set the generated windows draw from: a coarse grid
// (ties on every dimension, duplicates), negated values (what a maximised
// dimension looks like after orientation), pairs that differ by less than
// an ulp of any sum they enter (rounding-tie sums), and magnitudes whose
// sum overflows to ±Inf.
var palette = []float64{
	0, 0.25, 0.5, 0.75, 1, -0.25, -0.5, -1,
	1e-20, 2e-20, -1e-20, 0.5 + 1e-16, 0.5 - 1e-16/2,
	1e308, 1.7e308, -1e308, -1.7e308,
}

func paletteList(raw []byte, d int) tuple.List {
	var out tuple.List
	for i := 0; i+d <= len(raw); i += d {
		t := make(tuple.Tuple, d)
		for k := range t {
			t[k] = palette[int(raw[i+k])%len(palette)]
		}
		out = append(out, t)
	}
	return out
}

// weaklyDominatesOn is FilterOn's definition for one pair: u ≤ t on every
// dimension of dims, and — when dims is every dimension — u < t somewhere.
func weaklyDominatesOn(u, t tuple.Tuple, dims []int) bool {
	strictlyBelow := false
	for _, k := range dims {
		if u[k] > t[k] {
			return false
		}
		strictlyBelow = strictlyBelow || u[k] < t[k]
	}
	return strictlyBelow || len(dims) < len(t)
}

// scalarFilterOn applies the definition to whole lists, counting as the
// in-place sweep must: one test per candidate up to the first that decides.
func scalarFilterOn(w, by tuple.List, dims []int) (kept tuple.List, tests int64) {
	if len(by) == 0 {
		return w, 0
	}
	for _, t := range w {
		dominated := false
		for _, u := range by {
			tests++
			if weaklyDominatesOn(u, t, dims) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, t)
		}
	}
	return kept, tests
}

func sameRows(a, b tuple.List) bool { return slices.EqualFunc(a, b, tuple.Tuple.Equal) }

// colRows returns the tuples a window's columns hold, decoded from its
// column list.
func colRows(t *testing.T, w *Window) tuple.List {
	t.Helper()
	l, err := tuple.DecodeColumns(w.dim, w.AppendColumns(nil))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// encodeRuns encodes every run as a column list, the form MergeRuns and
// Dominators read.
func encodeRuns(runs []tuple.List) [][]byte {
	enc := make([][]byte, len(runs))
	for i, run := range runs {
		enc[i] = tuple.EncodeList(run)
	}
	return enc
}

// checkColumns asserts the window's two views of its tuples agree; a
// window built from columns has no second view, only nil rows.
func checkColumns(t *testing.T, w *Window) {
	t.Helper()
	for k, col := range w.cols {
		if len(col) != len(w.rows) {
			t.Fatalf("column %d holds %d values for %d rows", k, len(col), len(w.rows))
		}
		for i, v := range col {
			if w.rows[i] != nil && v != w.rows[i][k] {
				t.Fatalf("column %d row %d holds %v, row says %v", k, i, v, w.rows[i][k])
			}
		}
	}
}

// checkFilterOn runs FilterOn of w by by on dims through both of its paths
// — by as given, and by repeated until it is longer than smallWindow, which
// changes no verdict but takes the E-sum-ordered path — against the scalar
// definition.
func checkFilterOn(t *testing.T, d int, wl, byl tuple.List, dims []int, sc *Scratch) {
	t.Helper()
	want, wantTests := scalarFilterOn(wl, byl, dims)
	long := slices.Clip(byl)
	for len(long) > 0 && len(long) <= smallWindow {
		long = append(long, byl...)
	}
	for _, by := range []tuple.List{byl, long} {
		w, cnt := FromList(d, wl), Count{}
		w.FilterOn(FromList(d, by), dims, sc, &cnt)
		checkColumns(t, w)
		if !sameRows(w.Rows(), want) {
			t.Fatalf("d=%d dims=%v |w|=%d |by|=%d: kept %v, want %v", d, dims, len(wl), len(by), w.Rows(), want)
		}
		switch {
		case len(dims) == 0 || len(by) <= smallWindow:
			if len(by) == len(byl) && cnt.DominanceTests != wantTests {
				t.Fatalf("d=%d dims=%v |by|=%d: in-place sweep counted %d tests, scalar loop %d", d, dims, len(by), cnt.DominanceTests, wantTests)
			}
		case cnt.DominanceTests > int64(len(wl))*int64(len(by)):
			t.Fatalf("d=%d dims=%v: %d tests for %d × %d pairs", d, dims, cnt.DominanceTests, len(wl), len(by))
		}
	}
}

func dimsOf(mask uint8, d int) []int {
	var dims []int
	for k := 0; k < d; k++ {
		if mask>>uint(k)&1 == 1 {
			dims = append(dims, k)
		}
	}
	return dims
}

func FuzzFilterOrdered(f *testing.F) {
	// by-lengths straddling 0, 1, BlockSize and smallWindow ± 1.
	for _, nBy := range []int{0, 1, BlockSize - 1, BlockSize, BlockSize + 1, smallWindow - 1, smallWindow, smallWindow + 1} {
		for _, d := range []int{1, 2, 3, 6} {
			rng := rand.New(rand.NewSource(int64(nBy*7 + d)))
			raw := make([]byte, (nBy+40)*d)
			rng.Read(raw)
			f.Add(uint8(d-1), uint8(rng.Intn(64)), uint16(nBy), raw)
		}
	}
	f.Add(uint8(1), uint8(3), uint16(1), []byte{2, 8, 2, 9})    // (0.5, 2e-20) by (0.5, 1e-20): equal sums, strict
	f.Add(uint8(1), uint8(1), uint16(1), []byte{13, 13, 14, 0}) // sums overflow to +Inf on both sides
	var sc Scratch
	f.Fuzz(func(t *testing.T, dim, mask uint8, nBy uint16, raw []byte) {
		d := int(dim%6) + 1
		all := paletteList(raw, d)
		n := min(int(nBy), len(all))
		checkFilterOn(t, d, all[n:], all[:n], dimsOf(mask, d), &sc)
	})
}

// TestFilterOnMatchesDefinition is the fuzz target's property on random
// windows large enough that the E-sum cut, the candidate selection and the
// block padding all engage without the by window being repeated.
func TestFilterOnMatchesDefinition(t *testing.T) {
	var sc Scratch
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(6)
		gen := func(n int, shift float64) tuple.List {
			out := make(tuple.List, n)
			for i := range out {
				out[i] = make(tuple.Tuple, d)
				for k := range out[i] {
					out[i][k] = math.Round(rng.Float64()*20)/20 + shift
				}
			}
			return out
		}
		// by sits lower than w on average, as an ADR partition does.
		checkFilterOn(t, d, gen(rng.Intn(200), 0.3), gen(rng.Intn(300), 0), dimsOf(uint8(rng.Intn(64)), d), &sc)
	}
}

func TestFilterOnRejectsMalformedDims(t *testing.T) {
	for _, dims := range [][]int{{1, 0}, {0, 0}, {-1}, {3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dims %v accepted", dims)
				}
			}()
			w := FromList(3, tuple.List{{1, 1, 1}})
			w.FilterOn(FromList(3, tuple.List{{0, 0, 0}}), dims, new(Scratch), nil)
		}()
	}
}

// TestBeforeExtendsDominance: whenever u dominates t, u sorts before t —
// including when the two sums round to the same float, the case a sort on
// the sum alone gets wrong.
func TestBeforeExtendsDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ties := 0
	for trial := 0; trial < 20000; trial++ {
		d := 1 + rng.Intn(6)
		raw := make([]byte, 2*d)
		rng.Read(raw)
		l := paletteList(raw, d)
		u, v := l[0], l[1]
		su, sv := Score(u), Score(v)
		if tuple.Dominates(u, v) {
			if su == sv {
				ties++
			}
			if !Before(su, u, sv, v) || Before(sv, v, su, u) {
				t.Fatalf("%v dominates %v but does not sort before it (scores %v, %v)", u, v, su, sv)
			}
		}
		if Before(su, u, sv, v) && Before(sv, v, su, u) {
			t.Fatalf("Before is not antisymmetric on %v, %v", u, v)
		}
	}
	if ties == 0 {
		t.Fatal("no dominating pair with tied scores was generated")
	}
}

func TestOrderSortsWindowInPlace(t *testing.T) {
	var sc Scratch
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(6)
		raw := make([]byte, rng.Intn(3*smallWindow)*d)
		rng.Read(raw)
		l := paletteList(raw, d)
		w := FromList(d, l)
		w.Order(&sc)
		checkColumns(t, w)
		rows := w.Rows()
		for i := 1; i < len(rows); i++ {
			if Before(Score(rows[i]), rows[i], Score(rows[i-1]), rows[i-1]) {
				t.Fatalf("row %d %v sorts before row %d %v", i, rows[i], i-1, rows[i-1])
			}
		}
		sorted := l.Clone()
		SortByScore(sorted)
		if !sameRows(rows, sorted) {
			t.Fatalf("Order and SortByScore disagree:\n%v\n%v", rows, sorted)
		}
		if len(rows) != len(l) || !tuple.EqualAsSet(rows, l) {
			t.Fatalf("Order changed the window's contents")
		}
	}
}

// sfs is sort-filter-skyline written against the definition, the reference
// MergeRuns must reproduce row for row.
func sfs(l tuple.List) tuple.List {
	sorted := l.Clone()
	SortByScore(sorted)
	var out tuple.List
	for _, t := range sorted {
		dominated := false
		for _, u := range out {
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

// TestSortKeysMatchesComparisonSort: sortKeys puts keys in exactly the
// (sum, idx) order of a comparison sort, through the insertion sort and the
// bucket pass alike — on spread sums, on a few values repeated, and on sums
// that span the whole float range, infinities and both zeros included.
func TestSortKeysMatchesComparisonSort(t *testing.T) {
	var sc Scratch
	rng := rand.New(rand.NewSource(41))
	draws := []func() float64{
		rng.Float64,
		func() float64 { return palette[rng.Intn(len(palette))] },
		func() float64 { return float64(rng.Intn(3)) },
		func() float64 {
			return []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e-310}[rng.Intn(5)]
		},
	}
	for trial := 0; trial < 400; trial++ {
		draw := draws[trial%len(draws)]
		keys := make([]sortKey, rng.Intn(4*bucketMin))
		for i := range keys {
			keys[i] = sortKey{sum: draw(), idx: int32(i)}
			if rng.Intn(8) == 0 {
				keys[i].sum = math.Nextafter(keys[i].sum, math.Inf(1))
			}
		}
		want := slices.Clone(keys)
		slices.SortFunc(want, func(a, b sortKey) int {
			if c := cmp.Compare(a.sum, b.sum); a.sum != b.sum && c != 0 {
				return c
			}
			return cmp.Compare(a.idx, b.idx)
		})
		sc.sortKeys(keys)
		if !slices.Equal(keys, want) {
			t.Fatalf("trial %d: sorted %v, want %v", trial, keys, want)
		}
	}
}

func TestMergeRunsIsSFSOverTheUnion(t *testing.T) {
	var sc Scratch
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(5)
		var runs []tuple.List
		var union tuple.List
		for r := rng.Intn(6); r >= 0; r-- {
			raw := make([]byte, rng.Intn(40)*d)
			rng.Read(raw)
			run := paletteList(raw, d)
			if rng.Intn(2) == 0 {
				run = sfs(run) // what a mapper sends: a sorted local skyline
			} else {
				SortByScore(run) // sorted but not dominance-free: still merged exactly
			}
			runs = append(runs, run)
			union = append(union, run...)
		}
		var cnt Count
		w, err := MergeRuns(d, encodeRuns(runs), nil, &sc, &cnt)
		if err != nil {
			t.Fatal(err)
		}
		checkColumns(t, w)
		if slices.ContainsFunc(w.Rows(), func(r tuple.Tuple) bool { return r != nil }) {
			t.Fatalf("trial %d: a window merged from columns holds tuples %v", trial, w.Rows())
		}
		if got, want := colRows(t, w), sfs(union); !sameRows(got, want) {
			t.Fatalf("trial %d: merged %v, want %v", trial, got, want)
		}
		if n := int64(len(union)); cnt.DominanceTests > n*n {
			t.Fatalf("trial %d: %d tests merging %d tuples", trial, cnt.DominanceTests, n)
		}
	}
}

func TestMergeRunsRejectsUnorderedRun(t *testing.T) {
	good := tuple.List{{0.1, 0.2}, {0.3, 0.3}}
	for name, bad := range map[string]tuple.List{
		"by score":       {{0.5, 0.5}, {0.1, 0.1}},
		"by coordinates": {{0.5, 2e-20}, {0.5, 1e-20}}, // equal sums, second dominates first
	} {
		for _, runs := range [][]tuple.List{{bad}, {good, bad}, {bad, good}} {
			if w, err := MergeRuns(2, encodeRuns(runs), nil, new(Scratch), nil); !errors.Is(err, ErrRunOrder) {
				t.Errorf("%s: merged an unordered run into %d tuples (err %v)", name, w.Len(), err)
			}
		}
	}
	if _, err := MergeRuns(2, encodeRuns([]tuple.List{nil, good, {}}), nil, new(Scratch), nil); err != nil {
		t.Errorf("empty runs rejected: %v", err)
	}
	for name, run := range map[string][]byte{
		"truncated":      tuple.EncodeList(good)[:8],
		"trailing bytes": append(tuple.EncodeList(good), 0),
	} {
		if _, err := MergeRuns(2, [][]byte{run}, nil, new(Scratch), nil); err == nil || errors.Is(err, ErrRunOrder) {
			t.Errorf("%s run: err %v", name, err)
		}
	}
}

// encodeParts encodes every run of every part as a column list, the form
// Dominators columnarizes.
func encodeParts(parts [][]tuple.List) [][][]byte {
	enc := make([][][]byte, len(parts))
	for i, runs := range parts {
		enc[i] = encodeRuns(runs)
	}
	return enc
}

// TestDominatorsIsTheRunsUnion: each window Dominators builds from its
// part's encoded runs holds them, concatenated, in block-padded columns of
// exactly its blocks beside nil rows, and filters as a window of the same
// tuples does — dominated tuples and duplicates included. A run out of
// order stops it at that run's part, one that is not a whole list before
// any window, and a Pool refuses its windows.
func TestDominatorsIsTheRunsUnion(t *testing.T) {
	var sc Scratch
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(5)
		parts := make([][]tuple.List, rng.Intn(5))
		for i := range parts {
			for r := rng.Intn(4); r > 0; r-- {
				raw := make([]byte, rng.Intn(30)*d)
				rng.Read(raw)
				run := paletteList(raw, d)
				SortByScore(run)
				parts[i] = append(parts[i], run)
			}
		}
		ws, err := Dominators(d, encodeParts(parts), new(Scratch))
		if err != nil || len(ws) != len(parts) {
			t.Fatalf("trial %d: %d windows for %d parts, err %v", trial, len(ws), len(parts), err)
		}
		raw := make([]byte, rng.Intn(20)*d)
		rng.Read(raw)
		wl, dims := paletteList(raw, d), dimsOf(uint8(rng.Intn(1<<d)), d)
		for i := range ws {
			w, union := &ws[i], slices.Concat(parts[i]...)
			if w.Len() != len(union) || slices.ContainsFunc(w.Rows(), func(r tuple.Tuple) bool { return r != nil }) {
				t.Fatalf("trial %d part %d: %d rows %v for %d tuples, want nil rows", trial, i, w.Len(), w.Rows(), len(union))
			}
			for k, col := range w.cols {
				for r, u := range union {
					if col[r] != u[k] {
						t.Fatalf("trial %d part %d: column %d row %d holds %v, the runs %v", trial, i, k, r, col[r], u[k])
					}
				}
				if cap(col) != blocks(len(union))*BlockSize || slices.ContainsFunc(col[len(col):cap(col)], func(v float64) bool { return !math.IsInf(v, 1) }) {
					t.Fatalf("trial %d part %d: column capacity %d or padding wrong for %d tuples", trial, i, cap(col), len(union))
				}
			}
			got, want := FromList(d, wl), FromList(d, wl)
			got.FilterOn(w, dims, &sc, nil)
			want.FilterOn(FromList(d, union), dims, &sc, nil)
			if !sameRows(got.Rows(), want.Rows()) {
				t.Fatalf("trial %d part %d: filtered to %v, a window of the runs filters to %v", trial, i, got.Rows(), want.Rows())
			}
		}
	}
	good, bad := tuple.List{{0.1, 0.2}, {0.3, 0.3}}, tuple.List{{0.5, 2e-20}, {0.5, 1e-20}}
	ws, err := Dominators(2, encodeParts([][]tuple.List{{good}, {good, bad}, {good}}), new(Scratch))
	if !errors.Is(err, ErrRunOrder) || len(ws) != 1 || ws[0].Len() != len(good) {
		t.Errorf("unordered run in part 1: %d windows, err %v", len(ws), err)
	}
	enc := encodeParts([][]tuple.List{{good}, {good}})
	enc[1][0] = enc[1][0][:len(enc[1][0])-1]
	if ws, err := Dominators(2, enc, new(Scratch)); err == nil || errors.Is(err, ErrRunOrder) || ws != nil {
		t.Errorf("truncated run in part 1: %d windows, err %v", len(ws), err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a Pool took a Dominators window")
		}
	}()
	new(Pool).Put(&ws[0])
}
