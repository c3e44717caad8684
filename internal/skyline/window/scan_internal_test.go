// Tests of the scan kernels (scanBlocks, insertScan) and of the padding
// invariant they rely on. Each kernel is pinned three ways: the dispatched
// one (AVX2 assembly on amd64 when available) against its portable twin
// against the definition written out lane by lane.
package window

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mrskyline/internal/tuple"
)

// defScan is the membership scan's definition: the first block of
// [first, end) holding a lane that tv is not strictly better than on any
// column, and those lanes.
func defScan(view [][]float64, tv []float64, first, end int) (int, uint32) {
	for b := first; b < end; b++ {
		var mask uint32
		for i := 0; i < BlockSize; i++ {
			beaten := false
			for e, col := range view {
				beaten = beaten || tv[e] < block(col, b)[i]
			}
			if !beaten {
				mask |= 1 << uint(i)
			}
		}
		if mask != 0 {
			return b, mask
		}
	}
	return end, 0
}

// defInsertScan is the insert scan's definition; evicts[b] is written for
// every block up to and including the one that stops the scan.
func defInsertScan(cols [][]float64, tv []float64, evicts []uint32, end int, lastMask uint32) (blk int, dom, evicted uint32) {
	for b := 0; b < end; b++ {
		var ev uint32
		for i := 0; i < BlockSize; i++ {
			if b == end-1 && lastMask>>uint(i)&1 == 0 {
				continue
			}
			better, worse := false, false
			for k, col := range cols {
				u := block(col, b)[i]
				better, worse = better || tv[k] < u, worse || tv[k] > u
			}
			if better && !worse {
				ev |= 1 << uint(i)
			}
			if worse && !better {
				dom |= 1 << uint(i)
			}
		}
		evicts[b] = ev
		evicted |= ev
		if dom != 0 {
			return b, dom, evicted
		}
	}
	return end, 0, evicted
}

// checkKernels holds the dispatched kernels and their portable twins to the
// definitions on the n-lane block-padded view, from every first block.
func checkKernels(t *testing.T, view [][]float64, n int, tv []float64) {
	t.Helper()
	end := blocks(n)
	for first := 0; first <= end; first++ {
		wb, wm := defScan(view, tv, first, end)
		if b, m := scanPortable(view, tv, first, end); b != wb || m != wm {
			t.Fatalf("scanPortable(n=%d cols=%d tv=%v first=%d) = (%d, %04x), definition (%d, %04x)", n, len(view), tv, first, b, m, wb, wm)
		}
		if b, m := scanBlocks(view, tv, first, end); b != wb || m != wm {
			t.Fatalf("scanBlocks(n=%d cols=%d tv=%v first=%d) = (%d, %04x), definition (%d, %04x)", n, len(view), tv, first, b, m, wb, wm)
		}
	}
	lastMask := fullMask >> uint(end*BlockSize-n)
	want, got := make([]uint32, end), make([]uint32, end)
	wb, wd, we := defInsertScan(view, tv, want, end, lastMask)
	for name, scan := range map[string]func([][]float64, []float64, []uint32, int, uint32) (int, uint32, uint32){
		"insertScanPortable": insertScanPortable, "insertScan": insertScan,
	} {
		b, d, e := scan(view, tv, got, end, lastMask)
		if b != wb || d != wd || e != we || !slices.Equal(got[:min(b+1, end)], want[:min(wb+1, end)]) {
			t.Fatalf("%s(n=%d cols=%d tv=%v) = (%d, %04x, %04x, %04x), definition (%d, %04x, %04x, %04x)",
				name, n, len(view), tv, b, d, e, got, wb, wd, we, want)
		}
	}
}

// scalarFirstDominator is firstDominator's definition over rows projected
// on dims.
func scalarFirstDominator(rows tuple.List, dims []int, t tuple.Tuple, strict bool) int {
	for i, u := range rows {
		le, lt := true, false
		for _, k := range dims {
			le, lt = le && u[k] <= t[k], lt || u[k] < t[k]
		}
		if le && (lt || !strict) {
			return i
		}
	}
	return -1
}

// checkScans checks, for one window and one probe, the kernels on the
// window's own columns and on its projection on dims, firstDominator both
// strict and not, and Dominated's and Insert's verdicts and counts against
// the scalar loops.
func checkScans(t *testing.T, d int, rows tuple.List, probe tuple.Tuple, dims []int) {
	t.Helper()
	w := FromList(d, rows)
	checkPadding(t, w)
	checkKernels(t, w.cols, len(rows), probe)
	view, tv := make([][]float64, len(dims)), make([]float64, len(dims))
	for e, k := range dims {
		view[e], tv[e] = w.cols[k], probe[k]
	}
	if len(dims) > 0 {
		checkKernels(t, view, len(rows), tv)
		for _, strict := range []bool{false, true} {
			want := scalarFirstDominator(rows, dims, probe, strict)
			if got := firstDominator(view, len(rows), blocks(len(rows)), tv, strict); got != want {
				t.Fatalf("firstDominator(n=%d dims=%v probe=%v strict=%v) = %d, want %d", len(rows), dims, probe, strict, got, want)
			}
		}
	}
	all := make([]int, d)
	for k := range all {
		all[k] = k
	}
	idx, wantTests := scalarFirstDominator(rows, all, probe, true), int64(len(rows))
	if idx >= 0 {
		wantTests = int64(idx + 1)
	}
	var c Count
	if got := w.Dominated(probe, &c); got != (idx >= 0) || c.DominanceTests != wantTests {
		t.Fatalf("Dominated(n=%d probe=%v) = %v after %d tests, want %v after %d", len(rows), probe, got, c.DominanceTests, idx >= 0, wantTests)
	}
	// Insert's eviction does not need a dominance-free window to be defined:
	// with no dominator, every row the probe dominates goes.
	var kept tuple.List
	for _, u := range rows {
		if !tuple.Dominates(probe, u) {
			kept = append(kept, u)
		}
	}
	c = Count{}
	switch entered := w.Insert(probe, &c); {
	case entered != (idx < 0) || c.DominanceTests != wantTests:
		t.Fatalf("Insert(n=%d probe=%v) = %v after %d tests, want %v after %d", len(rows), probe, entered, c.DominanceTests, idx < 0, wantTests)
	case entered && !sameRows(w.Rows(), append(kept, probe)):
		t.Fatalf("Insert(n=%d probe=%v) left %v, want %v", len(rows), probe, w.Rows(), append(kept, probe))
	case !entered && !sameRows(w.Rows(), rows):
		t.Fatalf("rejected Insert(n=%d probe=%v) changed the window", len(rows), probe)
	}
	checkColumns(t, w)
	checkPadding(t, w)
}

// checkPadding asserts the padding invariant: equal, whole-block column
// capacities and +Inf from Len to the next block boundary.
func checkPadding(t *testing.T, w *Window) {
	t.Helper()
	n := len(w.rows)
	for k, col := range w.cols {
		if cap(col)%BlockSize != 0 || cap(col) != cap(w.cols[0]) || cap(col) < n {
			t.Fatalf("column %d has capacity %d for %d rows (column 0: %d)", k, cap(col), n, cap(w.cols[0]))
		}
		for i, v := range col[n : blocks(n)*BlockSize] {
			if !math.IsInf(v, 1) {
				t.Fatalf("column %d padding lane %d holds %v", k, n+i, v)
			}
		}
	}
}

var scanLengths = []int{0, 1, 15, 16, 17, 31, 32, 33, 100}

// gridTuple draws a tuple from a coarse grid, so every lane ties with the
// probe somewhere.
func gridTuple(rng *rand.Rand, d, levels int) tuple.Tuple {
	t := make(tuple.Tuple, d)
	for k := range t {
		t[k] = float64(rng.Intn(levels)) / float64(levels)
	}
	return t
}

func TestScanKernelsMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range scanLengths {
		for d := 1; d <= 10; d++ {
			for trial := 0; trial < 12; trial++ {
				levels := []int{1, 2, 4, 8}[trial%4] // 1: ties on every lane and column
				rows := make(tuple.List, n)
				for i := range rows {
					rows[i] = gridTuple(rng, d, levels)
				}
				probe := gridTuple(rng, d, levels)
				switch {
				case n == 0:
				case trial%6 == 4: // a dominator in the first real lane
					rows[0] = probe.Clone()
					rows[0][rng.Intn(d)] -= 0.5
				case trial%6 == 5: // and in the last, nothing before it: all else incomparable or equal
					for i := range rows {
						rows[i] = probe.Clone()
						if d > 1 && i%2 == 0 {
							rows[i][0], rows[i][1] = probe[0]-1, probe[1]+1
						}
					}
					rows[n-1] = probe.Clone()
					rows[n-1][d-1] -= 0.5
				}
				checkScans(t, d, rows, probe, dimsOf(uint8(rng.Intn(1<<min(d, 8))), d))
			}
		}
	}
}

// TestScanResumesPastDuplicateBlocks: under the strict test an equal tuple
// is a candidate lane of the scan but never a dominator, so a window that
// opens with whole blocks of duplicates of the probe makes the scan stop on
// each and resume behind it.
func TestScanResumesPastDuplicateBlocks(t *testing.T) {
	for _, n := range scanLengths {
		for _, d := range []int{1, 3, 5} {
			probe := make(tuple.Tuple, d)
			for k := range probe {
				probe[k] = 0.5
			}
			rows := make(tuple.List, n)
			for i := range rows {
				rows[i] = probe
			}
			all := dimsOf(0xff, d)
			checkScans(t, d, rows, probe, all) // nothing but duplicates: not dominated
			if n > 0 {
				rows = slices.Clone(rows)
				rows[n-1] = probe.Clone()
				rows[n-1][0] = 0.25 // the last real lane dominates
				checkScans(t, d, rows, probe, all)
			}
		}
	}
}

// TestScanAtTheEdgeOfTheRange: ±MaxFloat64 are finite and compare like any
// other value in the kernels; only their sums overflow, which FilterOn's
// E-sum order has to survive (checkFilterOn's repeated by takes that path).
func TestScanAtTheEdgeOfTheRange(t *testing.T) {
	vals := []float64{-math.MaxFloat64, math.MaxFloat64, 0, -1, 1}
	rng := rand.New(rand.NewSource(3))
	draw := func(n, d int) tuple.List {
		out := make(tuple.List, n)
		for i := range out {
			out[i] = make(tuple.Tuple, d)
			for k := range out[i] {
				out[i][k] = vals[rng.Intn(len(vals))]
			}
		}
		return out
	}
	var sc Scratch
	for _, n := range scanLengths {
		for _, d := range []int{1, 2, 4} {
			rows := draw(n, d)
			for _, probe := range draw(6, d) {
				dims := dimsOf(uint8(1+rng.Intn(1<<d-1)), d)
				checkScans(t, d, rows, probe, dims)
				checkFilterOn(t, d, draw(20, d), rows, dims, &sc)
			}
		}
	}
}

// poison overwrites the window's padding lanes with a finite value so small
// that, were a lane at or past Len ever believed, it would dominate every
// probe of these tests.
func poison(w *Window) {
	for _, col := range w.cols {
		tail := col[len(w.rows) : blocks(len(w.rows))*BlockSize]
		for i := range tail {
			tail[i] = -1e300
		}
	}
}

// TestPaddingLanesAreExcludedByIndex writes garbage into the padding and
// shows no verdict, count or window changes: the +Inf there is a
// convenience, the index rule is what results rest on.
func TestPaddingLanesAreExcludedByIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var sc Scratch
	for _, n := range []int{1, 7, 15, 17, 31, 40} {
		for _, d := range []int{1, 2, 5} {
			rows := make(tuple.List, n)
			for i := range rows {
				rows[i] = gridTuple(rng, d, 4)
			}
			for trial := 0; trial < 20; trial++ {
				probe := gridTuple(rng, d, 4)
				clean, dirty := FromList(d, rows), FromList(d, rows)
				poison(dirty)
				checkKernels(t, dirty.cols, n, probe)

				var cc, cd Count
				if a, b := clean.Dominated(probe, &cc), dirty.Dominated(probe, &cd); a != b || cc != cd {
					t.Fatalf("n=%d d=%d probe=%v: Dominated %v/%d with +Inf padding, %v/%d with garbage", n, d, probe, a, cc.DominanceTests, b, cd.DominanceTests)
				}
				if a, b := clean.Insert(probe, &cc), dirty.Insert(probe, &cd); a != b || cc != cd || !sameRows(clean.Rows(), dirty.Rows()) {
					t.Fatalf("n=%d d=%d probe=%v: Insert %v/%d with +Inf padding, %v/%d with garbage", n, d, probe, a, cc.DominanceTests, b, cd.DominanceTests)
				}

				// FilterOn's in-place sweep reads by's own columns.
				dims := dimsOf(uint8(1+rng.Intn(1<<d-1)), d)
				by := rows[:min(n, smallWindow)]
				dirtyBy := FromList(d, by)
				poison(dirtyBy)
				cc, cd = Count{}, Count{}
				clean, dirty = FromList(d, rows), FromList(d, rows)
				clean.FilterOn(FromList(d, by), dims, &sc, &cc)
				dirty.FilterOn(dirtyBy, dims, &sc, &cd)
				if cc != cd || !sameRows(clean.Rows(), dirty.Rows()) {
					t.Fatalf("n=%d d=%d dims=%v: FilterOn kept %d after %d tests with +Inf padding, %d after %d with garbage",
						n, d, dims, clean.Len(), cc.DominanceTests, dirty.Len(), cd.DominanceTests)
				}
			}
		}
	}
}

// TestPaddingSurvivesEveryMutation drives one window through every
// operation that changes its length or order and checks the invariant after
// each.
func TestPaddingSurvivesEveryMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var sc Scratch
	for _, d := range []int{1, 3, 6} {
		w := New(d)
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				w.Insert(gridTuple(rng, d, 16), nil)
			case op == 6:
				w.Append(gridTuple(rng, d, 16))
			case op == 7:
				w.Order(&sc)
			case op == 8:
				by := FromList(d, tuple.List{gridTuple(rng, d, 16), gridTuple(rng, d, 16)})
				if rng.Intn(2) == 0 {
					w.FilterBy(by, nil)
				} else {
					w.FilterOn(by, dimsOf(uint8(rng.Intn(1<<d)), d), &sc, nil)
				}
			case w.Len() > 40:
				w.Reset()
			}
			checkColumns(t, w)
			checkPadding(t, w)
		}
		runs := []tuple.List{slices.Clone(w.Rows()), slices.Clone(w.Rows())}
		for _, run := range runs {
			SortByScore(run)
		}
		m, err := MergeRuns(d, runs, nil, &sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkColumns(t, m)
		checkPadding(t, m)
	}
}

// FuzzScanMatchesPortable is the table's property on arbitrary windows: raw
// becomes n rows and a probe on a coarse grid with the range's two ends
// mixed in, scanned on the dimensions of mask.
func FuzzScanMatchesPortable(f *testing.F) {
	for _, n := range scanLengths {
		for _, d := range []int{1, 2, 5, 10} {
			rng := rand.New(rand.NewSource(int64(n*11 + d)))
			raw := make([]byte, (n+1)*d)
			rng.Read(raw)
			f.Add(uint8(d-1), uint8(rng.Intn(256)), raw)
		}
	}
	f.Add(uint8(1), uint8(3), bytes.Repeat([]byte{4}, 68))                     // duplicates of the probe only
	f.Add(uint8(1), uint8(3), append(bytes.Repeat([]byte{4}, 64), 3, 4, 4, 4)) // … and a dominator in the last lane
	vals := [16]float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1, -0.5, -1, 1e-300, -1e-300, 2, math.MaxFloat64, -math.MaxFloat64}
	f.Fuzz(func(t *testing.T, dim, mask uint8, raw []byte) {
		d := int(dim%10) + 1
		var all tuple.List
		for i := 0; i+d <= len(raw); i += d {
			tp := make(tuple.Tuple, d)
			for k := range tp {
				tp[k] = vals[raw[i+k]%16]
			}
			all = append(all, tp)
		}
		if len(all) == 0 {
			return
		}
		checkScans(t, d, all[:len(all)-1], all[len(all)-1], dimsOf(mask, d))
	})
}

// TestCutBlock pins the E-sum cut against the per-block test it replaces.
func TestCutBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	inf := math.Inf(1)
	for _, n := range scanLengths {
		sums := make([]float64, n)
		for i := range sums {
			sums[i] = []float64{-inf, inf, 0, 1, 2, 3, 4, 5, 6, 7}[rng.Intn(10)]
		}
		slices.Sort(sums)
		for _, ts := range []float64{-inf, -1, 0, 3, 3.5, 7, 8, inf} {
			want := 0
			for want < blocks(n) && !(sums[want*BlockSize] > ts) {
				want++
			}
			if got := cutBlock(sums, ts); got != want {
				t.Fatalf("cutBlock(%v, %v) = %d, want %d", sums, ts, got, want)
			}
		}
	}
}
