package grid_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mrskyline/internal/grid"
	"mrskyline/internal/tuple"
)

// candidateSeries mirrors the series core.ppdCandidates hands the ladder:
// the integers 2…n_m, thinned to at most max values spread evenly over the
// range with both endpoints kept.
func candidateSeries(card, d, max int) []int {
	nm := grid.MaxCandidatePPD(card, d, grid.MaxPartitions)
	if nm-1 <= max {
		out := make([]int, 0, nm-1)
		for j := 2; j <= nm; j++ {
			out = append(out, j)
		}
		return out
	}
	var out []int
	for i := 0; i < max; i++ {
		j := 2 + i*(nm-2)/(max-1)
		if len(out) == 0 || out[len(out)-1] != j {
			out = append(out, j)
		}
	}
	return out
}

// checkLadder asserts the cell-identity rule for one tuple: every level of
// the ladder puts t where a grid built on its own puts it, and a locate
// into every prefix dst[:k] fills exactly the head of the full locate and
// leaves dst[k:] alone.
func checkLadder(t *testing.T, l *grid.Ladder, ref []*grid.Grid, p tuple.Tuple, dst []int) {
	t.Helper()
	l.Locate(p, dst)
	for i, g := range ref {
		if want := g.Locate(p); dst[i] != want {
			t.Fatalf("d=%d PPD %d tuple %v: ladder cell %d, Grid.Locate %d", g.Dim(), g.PPD(), p, dst[i], want)
		}
	}
	full := slices.Clone(dst)
	for k := range dst {
		for i := range dst {
			dst[i] = -1
		}
		if got := l.Locate(p, dst[:k]); len(got) != k || !slices.Equal(got, full[:k]) {
			t.Fatalf("d=%d tuple %v: prefix of %d levels located %v, full locate %v", l.Dim(), p, k, got, full)
		}
		for i, c := range dst[k:] {
			if c != -1 {
				t.Fatalf("d=%d tuple %v: prefix of %d levels wrote level %d", l.Dim(), p, k, k+i)
			}
		}
	}
}

// edgeValues returns the values on which cell assignment is most fragile
// for one dimension of the ladder's grids: the cell edges lo + c·width of
// every level (all of them up to PPD 64, the outermost and a random sample
// beyond), the upper bound, one ulp either side of each, values far outside
// the domain, signed zeros, denormals and non-finite values.
func edgeValues(rng *rand.Rand, ref []*grid.Grid, k int) []float64 {
	lo, hi := ref[0].Lo()[k], ref[0].Hi()[k]
	vals := []float64{
		math.Copysign(0, 1), math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -1e-310,
		lo - 1e9*(hi-lo), hi + 1e9*(hi-lo), -math.MaxFloat64, math.MaxFloat64,
		math.Inf(-1), math.Inf(1), math.NaN(),
	}
	for _, g := range ref {
		width := (hi - lo) / float64(g.PPD())
		n := g.PPD()
		cells := []int{0, 1, n - 1, n}
		for c := 2; c < n-1 && c < 64; c++ {
			cells = append(cells, c)
		}
		for i := 0; n > 64 && i < 32; i++ {
			cells = append(cells, 64+rng.Intn(n-64))
		}
		for _, c := range cells {
			e := lo + float64(c)*width
			vals = append(vals, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
		}
	}
	return append(vals, hi, math.Nextafter(hi, math.Inf(-1)), math.Nextafter(hi, math.Inf(1)))
}

func TestLadderMatchesLocate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for d := 1; d <= 6; d++ {
		unitLo, unitHi := make(tuple.Tuple, d), make(tuple.Tuple, d)
		lo, hi := make(tuple.Tuple, d), make(tuple.Tuple, d)
		for k := 0; k < d; k++ {
			unitHi[k] = 1
			lo[k] = -3.5 + 1.7*float64(k)
			hi[k] = lo[k] + 0.3*float64(k+1)*float64(k+1)
		}
		for _, box := range []struct{ lo, hi tuple.Tuple }{{nil, nil}, {unitLo, unitHi}, {lo, hi}} {
			for _, card := range []int{5, 1000, 150_000, 3_000_000} {
				ppds := candidateSeries(card, d, 16)
				l, err := grid.NewLadder(d, ppds, box.lo, box.hi)
				if err != nil {
					t.Fatalf("d=%d card=%d: %v", d, card, err)
				}
				if l.Dim() != d || l.Len() != len(ppds) {
					t.Fatalf("ladder is %d levels of d=%d, want %d of d=%d", l.Len(), l.Dim(), len(ppds), d)
				}
				refLo, refHi := box.lo, box.hi
				if refLo == nil {
					refLo, refHi = unitLo, unitHi
				}
				ref := make([]*grid.Grid, len(ppds))
				for i, n := range ppds {
					if ref[i], err = grid.NewWithBounds(d, n, refLo, refHi); err != nil {
						t.Fatal(err)
					}
					if l.Grid(i).PPD() != n || l.Grid(i).NumPartitions() != ref[i].NumPartitions() {
						t.Fatalf("level %d is PPD %d, want %d", i, l.Grid(i).PPD(), n)
					}
					if lv, ok := l.Level(n); !ok || lv != i {
						t.Fatalf("Level(%d) = %d, %v; want %d", n, lv, ok, i)
					}
				}
				if _, ok := l.Level(1); ok {
					t.Fatal("Level(1) found a level")
				}

				edges := make([][]float64, d)
				for k := range edges {
					edges[k] = edgeValues(rng, ref, k)
				}
				p, dst := make(tuple.Tuple, d), make([]int, l.Len())
				// Every edge value on every dimension, beside random
				// in-domain neighbours; then random mixes of edge values.
				for k := 0; k < d; k++ {
					for _, v := range edges[k] {
						for j := range p {
							p[j] = refLo[j] + rng.Float64()*(refHi[j]-refLo[j])
						}
						p[k] = v
						checkLadder(t, l, ref, p, dst)
					}
				}
				for trial := 0; trial < 2000; trial++ {
					for j := range p {
						if rng.Intn(3) == 0 {
							p[j] = refLo[j] + rng.Float64()*(refHi[j]-refLo[j])
						} else {
							p[j] = edges[j][rng.Intn(len(edges[j]))]
						}
					}
					checkLadder(t, l, ref, p, dst)
				}
			}
		}
	}
}

func TestLadderRejects(t *testing.T) {
	if _, err := grid.NewLadder(2, nil, nil, nil); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := grid.NewLadder(0, []int{2}, nil, nil); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := grid.NewLadder(2, []int{2, 0}, nil, nil); err == nil {
		t.Error("PPD 0 accepted")
	}
	if _, err := grid.NewLadder(2, []int{2}, tuple.Tuple{0, 0}, nil); err == nil {
		t.Error("lo without hi accepted")
	}
	if _, err := grid.NewLadder(2, []int{2}, tuple.Tuple{0, 1}, tuple.Tuple{1, 1}); err == nil {
		t.Error("empty domain accepted")
	}
	for _, ppds := range [][]int{{3, 2}, {2, 4, 3}, {2, 2}, {2, 3, 3}} {
		if _, err := grid.NewLadder(2, ppds, nil, nil); err == nil {
			t.Errorf("PPDs %v accepted", ppds)
		}
	}
	l, err := grid.NewLadder(2, []int{2, 3}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A short dst is legal: it names the leading levels.
	if got := l.Locate(tuple.Tuple{0.9, 0.1}, make([]int, 1)); len(got) != 1 || got[0] != l.Grid(0).Locate(tuple.Tuple{0.9, 0.1}) {
		t.Errorf("short dst located %v", got)
	}
	if got := l.Locate(tuple.Tuple{0.9, 0.1}, nil); len(got) != 0 {
		t.Errorf("empty dst located %v", got)
	}
	for name, call := range map[string]func(){
		"short tuple": func() { l.Locate(tuple.Tuple{0.5}, make([]int, 2)) },
		"long tuple":  func() { l.Locate(tuple.Tuple{0.5, 0.5, 0.5}, make([]int, 2)) },
		"long dst":    func() { l.Locate(tuple.Tuple{0.5, 0.5}, make([]int, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzLocateLadder drives the cell-identity rule from fuzzed geometry: the
// dimensionality, the cardinality that sizes the candidate series, the
// domain, and the tuple itself.
func FuzzLocateLadder(f *testing.F) {
	f.Add(uint8(2), uint32(150_000), 0.0, 1.0, 0.5, 0.25, 1.0, -0.0, 5e-324, 1e300)
	f.Add(uint8(0), uint32(1000), -3.5, 0.3, -3.5, -3.2, math.Nextafter(-3.2, 0), 0.0, 0.0, 0.0)
	f.Add(uint8(5), uint32(49_999_999), 1e-310, 1e-308, 2e-310, 0.0, math.Inf(1), math.NaN(), -1.0, 7.0)
	f.Fuzz(func(t *testing.T, dRaw uint8, card uint32, lo0, span, v0, v1, v2, v3, v4, v5 float64) {
		d := 1 + int(dRaw%6)
		lo, hi := make(tuple.Tuple, d), make(tuple.Tuple, d)
		for k := 0; k < d; k++ {
			lo[k] = lo0 + float64(k)*span
			hi[k] = lo[k] + span/float64(k+1)
			if !(hi[k] > lo[k]) || math.IsInf(hi[k]-lo[k], 0) {
				t.Skip("not a domain")
			}
		}
		// Below MaxPartitions, so that d = 1 does not walk n_m down to it.
		ppds := candidateSeries(int(card%50_000_000), d, 16)
		l, err := grid.NewLadder(d, ppds, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]*grid.Grid, len(ppds))
		for i, n := range ppds {
			if ref[i], err = grid.NewWithBounds(d, n, lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		dst := make([]int, l.Len())
		p := tuple.Tuple{v0, v1, v2, v3, v4, v5}[:d]
		checkLadder(t, l, ref, p, dst)
		// The same values, moved onto the domain: offsets from lo, and the
		// nearest cell edge of the finest level either side.
		fine := ref[len(ref)-1]
		for k := range p {
			width := (hi[k] - lo[k]) / float64(fine.PPD())
			e := lo[k] + math.Floor(math.Abs(p[k]))*width
			for _, v := range []float64{lo[k] + p[k], e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1))} {
				q := p.Clone()
				q[k] = v
				checkLadder(t, l, ref, q, dst)
			}
		}
	})
}
