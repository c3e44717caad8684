// Differential tests: the columnar block kernel must reproduce the
// scalar reference (skyline.InsertTuple and the plain membership loop)
// exactly — same window contents in the same order, same insertion
// outcomes, and the same Count.DominanceTests advance on every single
// call. The generators cover the regimes that exercise different mask
// paths: random (mixed outcomes), anti-correlated (incomparable-heavy,
// saturates the early-exit mask), duplicate-heavy (equal tuples and
// evictions), and all-equal (pure equality, nothing dominates).
package window_test

import (
	"math/rand"
	"testing"

	"mrskyline/internal/obs"
	"mrskyline/internal/skyline"
	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// generators produce deterministic datasets per distribution name.
var generators = map[string]func(rng *rand.Rand, n, d int) tuple.List{
	"random": func(rng *rand.Rand, n, d int) tuple.List {
		out := make(tuple.List, n)
		for i := range out {
			t := make(tuple.Tuple, d)
			for k := range t {
				t[k] = rng.Float64()
			}
			out[i] = t
		}
		return out
	},
	"anticorrelated": func(rng *rand.Rand, n, d int) tuple.List {
		// Points scattered around the hyperplane sum = d/2: good on one
		// dimension means bad on another, so almost every pair is
		// incomparable and the masks saturate.
		out := make(tuple.List, n)
		for i := range out {
			t := make(tuple.Tuple, d)
			var sum float64
			for k := range t {
				t[k] = rng.Float64()
				sum += t[k]
			}
			shift := sum/float64(d) - 0.5
			for k := range t {
				t[k] -= shift
			}
			out[i] = t
		}
		return out
	},
	"duplicate-heavy": func(rng *rand.Rand, n, d int) tuple.List {
		// Coarse value grid plus whole-tuple repeats: lots of equal
		// values per dimension, frequent exact duplicates, frequent
		// dominance (so evictions and drops both trigger).
		out := make(tuple.List, 0, n)
		for len(out) < n {
			if len(out) > 0 && rng.Intn(4) == 0 {
				out = append(out, out[rng.Intn(len(out))])
				continue
			}
			t := make(tuple.Tuple, d)
			for k := range t {
				t[k] = float64(rng.Intn(4)) / 4
			}
			out = append(out, t)
		}
		return out
	},
	"all-equal": func(rng *rand.Rand, n, d int) tuple.List {
		t := make(tuple.Tuple, d)
		for k := range t {
			t[k] = rng.Float64()
		}
		out := make(tuple.List, n)
		for i := range out {
			out[i] = t
		}
		return out
	},
}

// scalarDominated is the scalar reference of Window.Dominated: one test
// per tuple examined, stopping at the first dominator.
func scalarDominated(t tuple.Tuple, s tuple.List, c *skyline.Count) bool {
	for _, u := range s {
		c.Add(1)
		if tuple.Dominates(u, t) {
			return true
		}
	}
	return false
}

func sameList(a, b tuple.List) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestInsertMatchesScalarReference drives the columnar Insert and the
// scalar InsertTuple side by side and asserts exact agreement after
// every insertion: window contents and order, and the precise
// DominanceTests advance (including scans cut short by a dominator
// inside a block).
func TestInsertMatchesScalarReference(t *testing.T) {
	for name, gen := range generators {
		for _, d := range []int{1, 2, 3, 4, 6, 9} {
			rng := rand.New(rand.NewSource(int64(42 + d)))
			data := gen(rng, 400, d)
			w := window.New(d)
			var s tuple.List
			var cw, cs skyline.Count
			for i, tp := range data {
				w.Insert(tp, &cw)
				s = skyline.InsertTuple(tp, s, &cs)
				if cw.DominanceTests != cs.DominanceTests {
					t.Fatalf("%s d=%d step %d: columnar counted %d tests, scalar %d",
						name, d, i, cw.DominanceTests, cs.DominanceTests)
				}
				if !sameList(w.Rows(), s) {
					t.Fatalf("%s d=%d step %d: windows diverged (%d vs %d tuples)",
						name, d, i, w.Len(), len(s))
				}
			}
		}
	}
}

// TestDominatedMatchesScalarReference probes dominance-free windows with
// fresh tuples and asserts Dominated agrees with the scalar membership
// loop on both the verdict and the count advance.
func TestDominatedMatchesScalarReference(t *testing.T) {
	for name, gen := range generators {
		for _, d := range []int{1, 2, 4, 7} {
			rng := rand.New(rand.NewSource(int64(7 * d)))
			var cnt skyline.Count
			sky := skyline.BNL(gen(rng, 500, d), &cnt)
			w := window.FromList(d, sky)
			for i, probe := range gen(rng, 300, d) {
				var cw, cs skyline.Count
				got := w.Dominated(probe, &cw)
				want := scalarDominated(probe, sky, &cs)
				if got != want || cw.DominanceTests != cs.DominanceTests {
					t.Fatalf("%s d=%d probe %d: columnar (%v, %d), scalar (%v, %d)",
						name, d, i, got, cw.DominanceTests, want, cs.DominanceTests)
				}
			}
		}
	}
}

// TestFilterByMatchesScalarReference filters one local skyline by
// another — the ComparePartitions inner operation — and checks survivors
// and counts against the scalar loops.
func TestFilterByMatchesScalarReference(t *testing.T) {
	for name, gen := range generators {
		for _, d := range []int{2, 3, 5} {
			rng := rand.New(rand.NewSource(int64(100 + d)))
			var cnt skyline.Count
			a := skyline.BNL(gen(rng, 400, d), &cnt)
			b := skyline.BNL(gen(rng, 400, d), &cnt)

			var cw skyline.Count
			wa := window.FromList(d, a)
			wa.FilterBy(window.FromList(d, b), &cw)

			var cs skyline.Count
			var want tuple.List
			for _, tp := range a {
				if !scalarDominated(tp, b, &cs) {
					want = append(want, tp)
				}
			}
			if cw.DominanceTests != cs.DominanceTests {
				t.Fatalf("%s d=%d: columnar counted %d tests, scalar %d",
					name, d, cw.DominanceTests, cs.DominanceTests)
			}
			if !sameList(wa.Rows(), want) {
				t.Fatalf("%s d=%d: survivors diverged (%d vs %d tuples)",
					name, d, wa.Len(), len(want))
			}
		}
	}
}

// TestWindowStaysDominanceFree asserts the structural invariant every
// algorithm relies on: after any insertion sequence no window tuple
// dominates another.
func TestWindowStaysDominanceFree(t *testing.T) {
	for name, gen := range generators {
		rng := rand.New(rand.NewSource(3))
		w := window.New(3)
		for _, tp := range gen(rng, 600, 3) {
			w.Insert(tp, nil)
		}
		rows := w.Rows()
		for i, a := range rows {
			for j, b := range rows {
				if i != j && tuple.Dominates(a, b) {
					t.Fatalf("%s: window tuple %d dominates tuple %d", name, i, j)
				}
			}
		}
	}
}

// TestInsertSamplerTimesOneInsertInSixtyFour pins the sampling rule tasks
// rely on: over n Inserts a sampler observes ⌈n/InsertSampleEvery⌉
// latencies, leaves the windows and the Count exactly as plain Insert
// would, and with no registry is plain Insert.
func TestInsertSamplerTimesOneInsertInSixtyFour(t *testing.T) {
	data := generators["random"](rand.New(rand.NewSource(9)), 200, 2)
	for _, n := range []int{0, 1, 64, 65, 200} {
		reg := obs.NewRegistry()
		var s window.InsertSampler
		var got, want skyline.Count
		w, ref := window.New(2), window.New(2)
		for _, tp := range data[:n] {
			if s.Insert(reg, w, tp, &got) != ref.Insert(tp, &want) {
				t.Fatalf("n=%d: sampled Insert disagrees with Insert", n)
			}
		}
		if got != want || !sameList(w.Rows(), ref.Rows()) {
			t.Errorf("n=%d: sampled Insert changed the window or the count", n)
		}
		var samples int64
		for _, h := range reg.Snapshot().Histograms {
			if h.Name == window.MetricInsertNs {
				samples = h.Count
			}
		}
		if want := int64(n+window.InsertSampleEvery-1) / window.InsertSampleEvery; samples != want {
			t.Errorf("n=%d: %s holds %d samples, want %d", n, window.MetricInsertNs, samples, want)
		}
	}
	var s window.InsertSampler
	if !s.Insert(nil, window.New(2), tuple.Tuple{0.1, 0.2}, nil) {
		t.Error("nil-registry sampler did not insert")
	}
}

// FuzzInsertDifferential fuzzes the Insert equivalence: arbitrary bytes
// become a tuple stream on a coarse value grid (maximizing duplicate
// values, equal tuples, and dominance), and the columnar and scalar
// windows must stay identical in contents, order, and counts.
func FuzzInsertDifferential(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 15, 0})
	f.Add(uint8(4), []byte{9, 9, 9, 9, 1, 2, 3, 4, 4, 3, 2, 1})
	f.Add(uint8(1), []byte{5, 5, 5, 4, 6})
	f.Add(uint8(6), []byte{})
	f.Fuzz(func(t *testing.T, dim uint8, raw []byte) {
		d := int(dim%6) + 1
		w := window.New(d)
		var s tuple.List
		var cw, cs skyline.Count
		for i := 0; i+d <= len(raw); i += d {
			tp := make(tuple.Tuple, d)
			for k := 0; k < d; k++ {
				tp[k] = float64(raw[i+k]%16) / 16
			}
			w.Insert(tp, &cw)
			s = skyline.InsertTuple(tp, s, &cs)
			if cw.DominanceTests != cs.DominanceTests {
				t.Fatalf("step %d: columnar counted %d tests, scalar %d", i/d, cw.DominanceTests, cs.DominanceTests)
			}
			if !sameList(w.Rows(), s) {
				t.Fatalf("step %d: windows diverged (%d vs %d tuples)", i/d, w.Len(), len(s))
			}
		}
	})
}

func TestReset(t *testing.T) {
	var cnt window.Count
	w := window.FromList(2, tuple.List{{0.4, 0.6}, {0.6, 0.4}})
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", w.Len())
	}
	// The reset window behaves exactly like a fresh one under inserts —
	// the delete-repair rebuild path of the incremental maintainer.
	rows := tuple.List{{0.5, 0.5}, {0.2, 0.8}, {0.7, 0.7}, {0.2, 0.8}}
	for _, r := range rows {
		w.Insert(r, &cnt)
	}
	fresh := window.New(2)
	var cnt2 window.Count
	for _, r := range rows {
		fresh.Insert(r, &cnt2)
	}
	if got, want := w.Rows(), fresh.Rows(); !tuple.EqualAsSet(got, want) || len(got) != len(want) {
		t.Fatalf("reset-rebuilt window %v != fresh window %v", got, want)
	}
}

// TestRemovalsDropRows: every removal — Insert's evictions, a filter, a
// Reset — leaves no tuple in the row slots past Len, so a window pins only
// the rows it holds, whoever reuses it next.
func TestRemovalsDropRows(t *testing.T) {
	pinned := func(w *window.Window) bool {
		rows := w.Rows()
		for _, u := range rows[len(rows):cap(rows)] {
			if u != nil {
				return true
			}
		}
		return false
	}
	w := window.New(2)
	for _, u := range (tuple.List{{0.9, 0.9}, {0.8, 0.85}, {0.7, 0.95}, {0.95, 0.6}, {0.3, 0.3}}) {
		w.Insert(u, nil)
	}
	if w.Len() != 1 || pinned(w) {
		t.Fatalf("after evictions: %v, pinning removed rows: %v", w.Rows(), pinned(w))
	}
	for _, u := range (tuple.List{{0.1, 0.9}, {0.9, 0.1}, {0.2, 0.5}}) {
		w.Insert(u, nil)
	}
	w.FilterBy(window.FromList(2, tuple.List{{0.05, 0.45}}), nil)
	if w.Len() != 2 || pinned(w) {
		t.Fatalf("after a filter: %v, pinning removed rows: %v", w.Rows(), pinned(w))
	}
	w.Reset()
	if w.Len() != 0 || pinned(w) {
		t.Fatalf("after Reset: %d rows, pinning removed rows: %v", w.Len(), pinned(w))
	}
}
