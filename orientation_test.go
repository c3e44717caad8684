package mrskyline_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	mrskyline "mrskyline"
)

// TestOrientationDominates pins the public Dominates contract across
// orientations, including the edge cases the sign normalization must
// preserve: a maximize vector shorter than the tuples (missing
// dimensions minimize), an all-false vector (identity), and mismatched
// lengths (never dominates).
func TestOrientationDominates(t *testing.T) {
	cases := []struct {
		a, b     []float64
		maximize []bool
		want     bool
	}{
		{[]float64{1, 2}, []float64{2, 2}, nil, true},
		{[]float64{2, 2}, []float64{1, 2}, nil, false},
		{[]float64{1, 1}, []float64{1, 1}, nil, false},
		// Mixed orientation: dimension 0 minimizes, dimension 1 maximizes.
		{[]float64{1, 5}, []float64{2, 3}, []bool{false, true}, true},
		{[]float64{1, 3}, []float64{2, 5}, []bool{false, true}, false},
		{[]float64{1, 5}, []float64{1, 5}, []bool{false, true}, false},
		// All-false maximize behaves exactly like nil.
		{[]float64{1, 2}, []float64{2, 2}, []bool{false, false}, true},
		// Maximize shorter than the tuples: trailing dimensions minimize.
		{[]float64{5, 1, 1}, []float64{3, 1, 2}, []bool{true}, true},
		{[]float64{3, 1, 1}, []float64{5, 1, 1}, []bool{true}, false},
		// Length mismatch never dominates.
		{[]float64{1}, []float64{1, 2}, nil, false},
		// Zero values keep working under negation (-0.0 compares equal).
		{[]float64{0, 1}, []float64{0, 2}, []bool{true, false}, true},
	}
	for i, c := range cases {
		if got := mrskyline.Dominates(c.a, c.b, c.maximize); got != c.want {
			t.Errorf("case %d: Dominates(%v, %v, %v) = %v, want %v", i, c.a, c.b, c.maximize, got, c.want)
		}
		o := mrskyline.NewOrientation(c.maximize)
		if got := o.Dominates(c.a, c.b); got != c.want {
			t.Errorf("case %d: Orientation.Dominates(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

// TestOrientationApply checks the sign-vector normalization: identity
// orientations return the row unchanged without copying, oriented
// applications negate exactly the maximized dimensions, and applying
// twice restores the original values.
func TestOrientationApply(t *testing.T) {
	id := mrskyline.NewOrientation([]bool{false, false})
	if !id.Identity() {
		t.Error("all-false maximize is not the identity orientation")
	}
	row := []float64{1, 2}
	if got := id.Apply(row); &got[0] != &row[0] {
		t.Error("identity Apply copied the row")
	}

	o := mrskyline.NewOrientation([]bool{true, false, true})
	if o.Identity() {
		t.Error("mixed orientation reported as identity")
	}
	in := []float64{1, 2, 3}
	once := o.Apply(in)
	if want := []float64{-1, 2, -3}; fmt.Sprint(once) != fmt.Sprint(want) {
		t.Errorf("Apply(%v) = %v, want %v", in, once, want)
	}
	if twice := o.Apply(once); fmt.Sprint(twice) != fmt.Sprint(in) {
		t.Errorf("Apply is not an involution: %v", twice)
	}
	if in[0] != 1 || once[0] != -1 {
		t.Error("Apply mutated its input")
	}
}

// TestMixedMinMaxSkyline is the regression test for the orientation
// refactor: a mixed min/max query must agree with the brute-force oracle
// under Dominates(maximize) and with a manually pre-negated
// all-minimize query, across every algorithm.
func TestMixedMinMaxSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const card, d = 300, 3
	maximize := []bool{false, true, true}
	data := make([][]float64, card)
	negated := make([][]float64, card)
	for i := range data {
		row := make([]float64, d)
		neg := make([]float64, d)
		for k := range row {
			row[k] = rng.Float64()
			neg[k] = row[k]
			if maximize[k] {
				neg[k] = -row[k]
			}
		}
		data[i] = row
		negated[i] = neg
	}

	// Brute-force oracle under the mixed orientation.
	var oracle [][]float64
	for i, a := range data {
		dominated := false
		for j, b := range data {
			if i != j && mrskyline.Dominates(b, a, maximize) {
				dominated = true
				break
			}
		}
		if !dominated {
			oracle = append(oracle, a)
		}
	}

	canon := func(rows [][]float64) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		sort.Strings(out)
		return out
	}
	wantSet := fmt.Sprint(canon(oracle))

	for _, algo := range mrskyline.Algorithms() {
		opts := mrskyline.Options{Algorithm: algo, Nodes: 2, Maximize: maximize}
		res, err := mrskyline.Compute(data, opts)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if got := fmt.Sprint(canon(res.Skyline)); got != wantSet {
			t.Errorf("%s: mixed min/max skyline (%d tuples) disagrees with oracle (%d tuples)",
				algo, len(res.Skyline), len(oracle))
		}

		// The same query phrased as pre-negated minimization must select
		// the same tuples.
		resNeg, err := mrskyline.Compute(negated, mrskyline.Options{Algorithm: algo, Nodes: 2})
		if err != nil {
			t.Fatalf("%s (negated): %v", algo, err)
		}
		unneg := make([][]float64, len(resNeg.Skyline))
		for i, r := range resNeg.Skyline {
			row := make([]float64, len(r))
			for k := range r {
				row[k] = r[k]
				if maximize[k] {
					row[k] = -r[k]
				}
			}
			unneg[i] = row
		}
		if got := fmt.Sprint(canon(unneg)); got != wantSet {
			t.Errorf("%s: pre-negated minimization disagrees with Maximize query", algo)
		}
	}
}
