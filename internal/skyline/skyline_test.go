package skyline_test

import (
	"math/rand"
	"testing"

	"mrskyline/internal/skyline"
	"mrskyline/internal/tuple"
)

func randomList(rng *rand.Rand, n, d int, discrete bool) tuple.List {
	l := make(tuple.List, n)
	for i := range l {
		l[i] = make(tuple.Tuple, d)
		for k := range l[i] {
			if discrete {
				l[i][k] = float64(rng.Intn(4))
			} else {
				l[i][k] = rng.Float64()
			}
		}
	}
	return l
}

func TestInsertTuple(t *testing.T) {
	var c skyline.Count
	var w tuple.List
	w = skyline.InsertTuple(tuple.Tuple{5, 5}, w, &c)
	if len(w) != 1 {
		t.Fatalf("window = %v", w)
	}
	// Dominated incoming tuple is rejected.
	w = skyline.InsertTuple(tuple.Tuple{6, 6}, w, &c)
	if len(w) != 1 || !w[0].Equal(tuple.Tuple{5, 5}) {
		t.Fatalf("window after dominated insert = %v", w)
	}
	// Dominating incoming tuple evicts.
	w = skyline.InsertTuple(tuple.Tuple{4, 4}, w, &c)
	if len(w) != 1 || !w[0].Equal(tuple.Tuple{4, 4}) {
		t.Fatalf("window after dominating insert = %v", w)
	}
	// Incomparable tuple coexists.
	w = skyline.InsertTuple(tuple.Tuple{1, 9}, w, &c)
	if len(w) != 2 {
		t.Fatalf("window after incomparable insert = %v", w)
	}
	// A tuple dominating several window members evicts all of them.
	w = skyline.InsertTuple(tuple.Tuple{1, 4}, w, &c)
	if len(w) != 1 || !w[0].Equal(tuple.Tuple{1, 4}) {
		t.Fatalf("window after multi-evict = %v", w)
	}
	if c.DominanceTests == 0 {
		t.Error("comparisons not counted")
	}
}

func TestInsertTupleDuplicates(t *testing.T) {
	var w tuple.List
	w = skyline.InsertTuple(tuple.Tuple{1, 2}, w, nil)
	w = skyline.InsertTuple(tuple.Tuple{1, 2}, w, nil)
	if len(w) != 2 {
		t.Fatalf("duplicates must both be retained, window = %v", w)
	}
	// A dominator still evicts all duplicates.
	w = skyline.InsertTuple(tuple.Tuple{0, 0}, w, nil)
	if len(w) != 1 {
		t.Fatalf("duplicates not evicted, window = %v", w)
	}
}

func TestBNLAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(5)
		n := rng.Intn(120)
		data := randomList(rng, n, d, trial%2 == 0)
		got := skyline.BNL(data, nil)
		want := skyline.Naive(data)
		if !tuple.EqualAsSet(got, want) {
			t.Fatalf("trial %d (n=%d d=%d): BNL=%v naive=%v", trial, n, d, got, want)
		}
	}
}

func TestSFSAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(5)
		n := rng.Intn(120)
		data := randomList(rng, n, d, trial%2 == 1)
		got := skyline.SFS(data, nil)
		want := skyline.Naive(data)
		if !tuple.EqualAsSet(got, want) {
			t.Fatalf("trial %d (n=%d d=%d): SFS=%v naive=%v", trial, n, d, got, want)
		}
	}
}

// TestSFSRoundingTiedSums is the defect a sort on the sum alone has: the
// sums of a dominating pair can round to the same float, a stable sort then
// keeps the dominated tuple first, and SFS — which never evicts — returns
// it. The order must break score ties by coordinates.
func TestSFSRoundingTiedSums(t *testing.T) {
	data := tuple.List{{0.5, 2e-20}, {0.5, 1e-20}}
	if got, want := skyline.SFS(data, nil), skyline.Naive(data); !tuple.EqualAsMultiset(got, want) {
		t.Fatalf("SFS = %v, naive = %v", got, want)
	}

	// 1 000 generated cases: a base tuple and a second that differs from it
	// on one dimension by less than one ulp of their sum, in every dimension
	// position, followed by unrelated tuples; dominated tuple first.
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 1000; c++ {
		d := []int{2, 3, 5}[c%3]
		pos := c / 3 % d
		base := make(tuple.Tuple, d)
		for k := range base {
			base[k] = 0.25 + rng.Float64()/2
		}
		worse := base.Clone()
		base[pos] = rng.Float64() * 1e-18
		worse[pos] = base[pos] + (1+rng.Float64())*1e-18
		if base.Sum() != worse.Sum() {
			t.Fatalf("case %d: sums %v and %v do not tie", c, base.Sum(), worse.Sum())
		}
		data := append(tuple.List{worse, base}, randomList(rng, rng.Intn(6), d, false)...)
		if got, want := skyline.SFS(data, nil), skyline.Naive(data); !tuple.EqualAsMultiset(got, want) {
			t.Fatalf("case %d (d=%d, position %d): SFS = %v, naive = %v", c, d, pos, got, want)
		}
	}
}

func TestSkylineMinimalityAndCompleteness(t *testing.T) {
	// The skyline must contain no dominated tuple (minimality) and every
	// non-dominated tuple (completeness).
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		data := randomList(rng, 80, 3, true)
		sky := skyline.BNL(data, nil)
		for _, s := range sky {
			for _, u := range data {
				if tuple.Dominates(u, s) {
					t.Fatalf("skyline tuple %v dominated by %v", s, u)
				}
			}
		}
		for _, u := range data {
			dominated := false
			for _, v := range data {
				if tuple.Dominates(v, u) {
					dominated = true
					break
				}
			}
			if !dominated && !sky.Contains(u) {
				t.Fatalf("non-dominated tuple %v missing from skyline", u)
			}
		}
	}
}

// kernels are the package's two skyline computations, by name.
var kernels = []struct {
	name    string
	compute func(tuple.List, *skyline.Count) tuple.List
}{{"bnl", skyline.BNL}, {"sfs", skyline.SFS}}

func TestEmptyAndSingleton(t *testing.T) {
	for _, k := range kernels {
		if got := k.compute(nil, nil); len(got) != 0 {
			t.Errorf("%s: empty input produced %v", k.name, got)
		}
		one := tuple.List{{3, 4}}
		if got := k.compute(one, nil); len(got) != 1 || !got[0].Equal(one[0]) {
			t.Errorf("%s: singleton input produced %v", k.name, got)
		}
	}
}

func TestAllDuplicates(t *testing.T) {
	data := tuple.List{{1, 1}, {1, 1}, {1, 1}}
	for _, k := range kernels {
		got := k.compute(data, nil)
		if len(got) == 0 || !got[0].Equal(tuple.Tuple{1, 1}) {
			t.Errorf("%s: all-duplicates skyline = %v", k.name, got)
		}
	}
}

func TestTotalOrderChain(t *testing.T) {
	// A fully ordered chain has a single skyline tuple.
	var data tuple.List
	for i := 0; i < 50; i++ {
		data = append(data, tuple.Tuple{float64(i), float64(i)})
	}
	got := skyline.BNL(data, nil)
	if len(got) != 1 || !got[0].Equal(tuple.Tuple{0, 0}) {
		t.Errorf("chain skyline = %v", got)
	}
}

func TestAntiChain(t *testing.T) {
	// A pure anti-chain is its own skyline.
	var data tuple.List
	for i := 0; i < 50; i++ {
		data = append(data, tuple.Tuple{float64(i), float64(49 - i)})
	}
	got := skyline.SFS(data, nil)
	if len(got) != 50 {
		t.Errorf("anti-chain skyline size = %d, want 50", len(got))
	}
}

func TestSFSDoesNotMutateInput(t *testing.T) {
	data := tuple.List{{3, 3}, {1, 1}, {2, 2}}
	orig := data.Clone()
	skyline.SFS(data, nil)
	for i := range data {
		if !data[i].Equal(orig[i]) {
			t.Fatal("SFS reordered the caller's slice")
		}
	}
}

func TestNilCountIsSafe(t *testing.T) {
	data := tuple.List{{1, 2}, {2, 1}}
	skyline.BNL(data, nil)
	skyline.SFS(data, nil)
}

func TestSFSComparesLessOnSkylineHeavyInput(t *testing.T) {
	// The presorting advantage SFS exists for: on an anti-chain-heavy
	// input, SFS needs no evictions and at most as many comparisons.
	rng := rand.New(rand.NewSource(44))
	var data tuple.List
	for i := 0; i < 400; i++ {
		x := rng.Float64()
		data = append(data, tuple.Tuple{x, 1 - x})
	}
	var cb, cs skyline.Count
	skyline.BNL(data, &cb)
	skyline.SFS(data, &cs)
	if cs.DominanceTests > cb.DominanceTests {
		t.Errorf("SFS did %d comparisons, BNL %d", cs.DominanceTests, cb.DominanceTests)
	}
}

func BenchmarkBNL(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := randomList(rng, 5000, 4, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skyline.BNL(data, nil)
	}
}

func BenchmarkSFS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := randomList(rng, 5000, 4, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skyline.SFS(data, nil)
	}
}
