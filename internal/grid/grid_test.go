package grid_test

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mrskyline/internal/grid"
	"mrskyline/internal/tuple"
)

func mustGrid(t testing.TB, d, n int) *grid.Grid {
	t.Helper()
	g, err := grid.New(d, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := grid.New(0, 3); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := grid.New(2, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := grid.New(30, 10); err == nil {
		t.Error("10^30 partitions accepted")
	}
	if _, err := grid.NewWithBounds(2, 3, tuple.Tuple{0}, tuple.Tuple{1, 1}); err == nil {
		t.Error("bounds dimensionality mismatch accepted")
	}
	if _, err := grid.NewWithBounds(1, 3, tuple.Tuple{1}, tuple.Tuple{1}); err == nil {
		t.Error("empty domain accepted")
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	for _, cfg := range []struct{ d, n int }{{1, 7}, {2, 3}, {3, 4}, {5, 2}, {2, 100}} {
		g := mustGrid(t, cfg.d, cfg.n)
		c := make([]int, cfg.d)
		for i := 0; i < g.NumPartitions(); i++ {
			g.Coords(i, c)
			if got := g.Index(c); got != i {
				t.Fatalf("d=%d n=%d: Index(Coords(%d)) = %d", cfg.d, cfg.n, i, got)
			}
		}
	}
}

func TestFigure2Layout(t *testing.T) {
	// The 3×3 grid of Figure 2: centre cell is p4; its DR is {p8} and its
	// ADR is {p0, p1, p3}.
	g := mustGrid(t, 2, 3)
	if g.NumPartitions() != 9 {
		t.Fatalf("NumPartitions = %d", g.NumPartitions())
	}
	if got := g.Index([]int{1, 1}); got != 4 {
		t.Fatalf("centre cell index = %d, want 4", got)
	}
	if dr := g.DR(4); len(dr) != 1 || dr[0] != 8 {
		t.Errorf("p4.DR = %v, want [8]", dr)
	}
	adr := g.ADR(4)
	want := []int{0, 1, 3}
	if len(adr) != len(want) {
		t.Fatalf("p4.ADR = %v, want %v", adr, want)
	}
	for i := range want {
		if adr[i] != want[i] {
			t.Fatalf("p4.ADR = %v, want %v", adr, want)
		}
	}
	if !g.PartitionDominates(4, 8) {
		t.Error("p4 must dominate p8")
	}
	if g.PartitionDominates(4, 5) || g.PartitionDominates(4, 7) {
		t.Error("p4 must not dominate its row/column neighbours")
	}
	if g.PartitionDominates(4, 4) {
		t.Error("a partition must not dominate itself")
	}
}

func TestCornersAndLemma1(t *testing.T) {
	// Lemma 1 via corners: if pi ≺ pj, pi.max weakly dominates pj.min.
	g := mustGrid(t, 2, 3)
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			if g.PartitionDominates(i, j) {
				if !tuple.DominatesWeak(g.MaxCorner(i), g.MinCorner(j)) {
					t.Errorf("p%d ≺ p%d but max corner %v does not weakly dominate min corner %v",
						i, j, g.MaxCorner(i), g.MinCorner(j))
				}
			}
		}
	}
	if got := g.MinCorner(4); !got.Equal(tuple.Tuple{1.0 / 3, 1.0 / 3}) {
		t.Errorf("p4.min = %v", got)
	}
	if got := g.MaxCorner(4); !got.Equal(tuple.Tuple{2.0 / 3, 2.0 / 3}) {
		t.Errorf("p4.max = %v", got)
	}
}

// TestInADRMatchesCoordinateDefinition checks the digit-wise InADR against
// Definition 4 spelled out on materialized coordinates, for every ordered
// pair of a 3-d PPD-5 grid, and pins that it allocates nothing.
func TestInADRMatchesCoordinateDefinition(t *testing.T) {
	g := mustGrid(t, 3, 5)
	ci, cj := make([]int, 3), make([]int, 3)
	for i := 0; i < g.NumPartitions(); i++ {
		for j := 0; j < g.NumPartitions(); j++ {
			g.Coords(i, ci)
			g.Coords(j, cj)
			want := i != j
			for k := range ci {
				if cj[k] > ci[k] {
					want = false
				}
			}
			if got := g.InADR(j, i); got != want {
				t.Fatalf("InADR(%d, %d) = %v, coordinates %v vs %v say %v", j, i, got, cj, ci, want)
			}
		}
	}
	var sink bool
	if allocs := testing.AllocsPerRun(100, func() { sink = g.InADR(31, 124) || g.InADR(124, 31) }); allocs != 0 {
		t.Errorf("InADR allocates %v times per pair of calls, want 0", allocs)
	}
	_ = sink
}

// TestADRDimsMatchesCoordinates checks ADRDims against materialized
// coordinates for ordered pairs of each grid: it agrees with InADR,
// returns exactly the dimensions on which the two cells share a coordinate,
// appends after what dst already holds, leaves dst alone when it reports
// false, and allocates nothing when dst has room.
func TestADRDimsMatchesCoordinates(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		for _, n := range []int{1, 2, 3, 7} {
			g := mustGrid(t, d, n)
			ci, cj := make([]int, d), make([]int, d)
			// Every pair of a small grid; of a large one every 97th partition
			// against every 89th (7⁵ squared is 282 M pairs).
			si, sj := 1, 1
			if g.NumPartitions() > 1000 {
				si, sj = 97, 89
			}
			for i := 0; i < g.NumPartitions(); i += si {
				for j := 0; j < g.NumPartitions(); j += sj {
					g.Coords(i, ci)
					g.Coords(j, cj)
					want := []int{-1}
					for k := range ci {
						if cj[k] == ci[k] {
							want = append(want, k)
						}
					}
					got, in := g.ADRDims(j, i, []int{-1})
					if in != g.InADR(j, i) {
						t.Fatalf("d=%d n=%d: ADRDims(%d, %d) reports %v, InADR %v", d, n, j, i, in, !in)
					}
					if !in {
						want = want[:1]
					}
					if !slices.Equal(got, want) {
						t.Fatalf("d=%d n=%d: ADRDims(%d, %d) = %v, coordinates %v vs %v say %v", d, n, j, i, got, cj, ci, want)
					}
				}
			}
		}
	}
	g := mustGrid(t, 3, 5)
	dst := make([]int, 0, 3)
	if allocs := testing.AllocsPerRun(100, func() { dst, _ = g.ADRDims(31, 124, dst[:0]); dst, _ = g.ADRDims(124, 31, dst[:0]) }); allocs != 0 {
		t.Errorf("ADRDims allocates %v times per pair of calls, want 0", allocs)
	}
}

// TestLocateMonotone pins the property the projected ADR test rests on: a
// value's cell coordinate is monotone in the value, so when one cell's
// coordinate is below another's on some dimension, every tuple of the first
// is strictly below every tuple of the second there. The probes include
// values below lo, at and just around every cell edge, at hi, and far
// beyond it, where the coordinate clamps.
func TestLocateMonotone(t *testing.T) {
	for _, b := range []struct{ lo, hi float64 }{{0, 1}, {-10, 10}, {100, 200}, {-1e300, 1e300}, {0.1, 0.1000001}} {
		for _, n := range []int{1, 2, 3, 7, 64} {
			g, err := grid.NewWithBounds(1, n, tuple.Tuple{b.lo}, tuple.Tuple{b.hi})
			if err != nil {
				t.Fatal(err)
			}
			span := b.hi - b.lo
			probes := []float64{-math.MaxFloat64, -1e308, b.lo - span, b.lo - 1, math.Nextafter(b.lo, math.Inf(-1)), b.lo,
				b.hi, math.Nextafter(b.hi, math.Inf(1)), b.hi + 1, b.hi + span, 1e308, math.MaxFloat64}
			for c := 0; c <= n; c++ {
				edge := b.lo + float64(c)*span/float64(n)
				probes = append(probes, math.Nextafter(edge, math.Inf(-1)), edge, math.Nextafter(edge, math.Inf(1)))
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < 200; i++ {
				probes = append(probes, b.lo+(rng.Float64()*1.4-0.2)*span)
			}
			sort.Float64s(probes)
			prev := 0
			for i, v := range probes {
				c := g.Locate(tuple.Tuple{v})
				if c < 0 || c >= n {
					t.Fatalf("[%g,%g) n=%d: Locate(%g) = %d outside the grid", b.lo, b.hi, n, v, c)
				}
				if i > 0 && c < prev {
					t.Fatalf("[%g,%g) n=%d: Locate(%g) = %d but Locate(%g) = %d", b.lo, b.hi, n, probes[i-1], prev, v, c)
				}
				prev = c
			}
		}
	}
}

func TestADRMatchesInADRBruteForce(t *testing.T) {
	for _, cfg := range []struct{ d, n int }{{1, 5}, {2, 4}, {3, 3}, {4, 2}} {
		g := mustGrid(t, cfg.d, cfg.n)
		for i := 0; i < g.NumPartitions(); i++ {
			want := map[int]bool{}
			for j := 0; j < g.NumPartitions(); j++ {
				if g.InADR(j, i) {
					want[j] = true
				}
			}
			got := g.ADR(i)
			if len(got) != len(want) {
				t.Fatalf("d=%d n=%d p%d: ADR=%v, brute force %v", cfg.d, cfg.n, i, got, want)
			}
			for _, j := range got {
				if !want[j] {
					t.Fatalf("d=%d n=%d p%d: ADR contains %d not in brute force", cfg.d, cfg.n, i, j)
				}
			}
			if g.ADRSize(i) != len(want) {
				t.Fatalf("d=%d n=%d p%d: ADRSize=%d, want %d", cfg.d, cfg.n, i, g.ADRSize(i), len(want))
			}
		}
	}
}

func TestDRMatchesPartitionDominatesBruteForce(t *testing.T) {
	for _, cfg := range []struct{ d, n int }{{1, 5}, {2, 4}, {3, 3}} {
		g := mustGrid(t, cfg.d, cfg.n)
		for i := 0; i < g.NumPartitions(); i++ {
			want := map[int]bool{}
			for j := 0; j < g.NumPartitions(); j++ {
				if g.PartitionDominates(i, j) {
					want[j] = true
				}
			}
			got := g.DR(i)
			if len(got) != len(want) {
				t.Fatalf("d=%d n=%d p%d: DR=%v, brute force %v", cfg.d, cfg.n, i, got, want)
			}
			for _, j := range got {
				if !want[j] {
					t.Fatalf("d=%d n=%d p%d: DR contains %d", cfg.d, cfg.n, i, j)
				}
			}
		}
	}
}

func TestADRvsDRDuality(t *testing.T) {
	// j ∈ DR(i) implies tuples of i dominate tuples of j; then i must be in
	// ADR(j) (i may contain dominators of j).
	g := mustGrid(t, 3, 3)
	for i := 0; i < g.NumPartitions(); i++ {
		for _, j := range g.DR(i) {
			if !g.InADR(i, j) {
				t.Fatalf("p%d ∈ p%d.DR but p%d ∉ p%d.ADR", j, i, i, j)
			}
		}
	}
}

func TestLocateAndClamping(t *testing.T) {
	g := mustGrid(t, 2, 3)
	cases := []struct {
		t    tuple.Tuple
		want int
	}{
		{tuple.Tuple{0, 0}, 0},
		{tuple.Tuple{0.5, 0.5}, 4},
		{tuple.Tuple{0.99, 0.99}, 8},
		{tuple.Tuple{0.34, 0.99}, 5},
		{tuple.Tuple{-5, 0.5}, 1},  // clamps to column 0
		{tuple.Tuple{0.5, 27}, 5},  // clamps to row 2
		{tuple.Tuple{1.0, 1.0}, 8}, // exact upper bound clamps inside
		{tuple.Tuple{2, -2}, 6},    // both out of range
	}
	for _, c := range cases {
		if got := g.Locate(c.t); got != c.want {
			t.Errorf("Locate(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestLocateConsistentWithCorners(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range []struct{ d, n int }{{2, 7}, {3, 4}, {5, 3}} {
		g := mustGrid(t, cfg.d, cfg.n)
		for trial := 0; trial < 500; trial++ {
			pt := make(tuple.Tuple, cfg.d)
			for k := range pt {
				pt[k] = rng.Float64()
			}
			i := g.Locate(pt)
			lo, hi := g.MinCorner(i), g.MaxCorner(i)
			for k := range pt {
				if pt[k] < lo[k] || pt[k] >= hi[k] {
					t.Fatalf("d=%d n=%d: %v located in p%d=[%v,%v) but outside on dim %d",
						cfg.d, cfg.n, pt, i, lo, hi, k)
				}
			}
		}
	}
}

func TestNonUnitBounds(t *testing.T) {
	g, err := grid.NewWithBounds(2, 4, tuple.Tuple{-10, 100}, tuple.Tuple{10, 200})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Locate(tuple.Tuple{-10, 100}); got != 0 {
		t.Errorf("lower corner located at %d", got)
	}
	if got := g.Locate(tuple.Tuple{9.99, 199.99}); got != g.NumPartitions()-1 {
		t.Errorf("upper corner located at %d", got)
	}
	if got := g.Locate(tuple.Tuple{0, 150}); got != g.Index([]int{2, 2}) {
		t.Errorf("midpoint located at %d", got)
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	g := mustGrid(t, 2, 3)
	for name, fn := range map[string]func(){
		"locate-dim":  func() { g.Locate(tuple.Tuple{1}) },
		"index-range": func() { g.Index([]int{3, 0}) },
		"index-dim":   func() { g.Index([]int{1}) },
		"coords":      func() { g.Coords(9, make([]int, 2)) },
		"cellof":      func() { g.CellOf(tuple.Tuple{1}, make([]int, 1)) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}
