package tuple

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompare(t *testing.T) {
	cases := []struct {
		name string
		a, b Tuple
		want DominanceResult
	}{
		{"dominates-strict-all", Tuple{1, 1}, Tuple{2, 2}, DomLeft},
		{"dominates-one-tie", Tuple{1, 2}, Tuple{2, 2}, DomLeft},
		{"dominated", Tuple{3, 3}, Tuple{2, 2}, DomRight},
		{"dominated-one-tie", Tuple{3, 2}, Tuple{2, 2}, DomRight},
		{"incomparable", Tuple{1, 3}, Tuple{3, 1}, DomNone},
		{"equal", Tuple{2, 2}, Tuple{2, 2}, DomEqual},
		{"equal-1d", Tuple{5}, Tuple{5}, DomEqual},
		{"dominates-1d", Tuple{4}, Tuple{5}, DomLeft},
		{"high-dim-incomparable", Tuple{0, 0, 0, 0, 1}, Tuple{1, 0, 0, 0, 0}, DomNone},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Compare(c.a, c.b); got != c.want {
				t.Errorf("Compare(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
			}
		})
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	// Compare(a,b) and Compare(b,a) must be mirror images.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		d := 1 + rng.Intn(6)
		a, b := make(Tuple, d), make(Tuple, d)
		for k := 0; k < d; k++ {
			// Small discrete domain to exercise ties often.
			a[k] = float64(rng.Intn(3))
			b[k] = float64(rng.Intn(3))
		}
		ab, ba := Compare(a, b), Compare(b, a)
		ok := (ab == DomLeft && ba == DomRight) ||
			(ab == DomRight && ba == DomLeft) ||
			(ab == DomNone && ba == DomNone) ||
			(ab == DomEqual && ba == DomEqual)
		if !ok {
			t.Fatalf("asymmetric result: Compare(%v,%v)=%v but Compare(%v,%v)=%v", a, b, ab, b, a, ba)
		}
	}
}

func TestDominanceTransitivity(t *testing.T) {
	// If a ≺ b and b ≺ c then a ≺ c (the transitivity property Lemma 1
	// relies on).
	rng := rand.New(rand.NewSource(2))
	checked := 0
	for i := 0; i < 20000 && checked < 500; i++ {
		d := 1 + rng.Intn(4)
		a, b, c := make(Tuple, d), make(Tuple, d), make(Tuple, d)
		for k := 0; k < d; k++ {
			a[k] = float64(rng.Intn(4))
			b[k] = float64(rng.Intn(4))
			c[k] = float64(rng.Intn(4))
		}
		if Dominates(a, b) && Dominates(b, c) {
			checked++
			if !Dominates(a, c) {
				t.Fatalf("transitivity violated: %v ≺ %v ≺ %v but not %v ≺ %v", a, b, c, a, c)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("too few transitive triples exercised: %d", checked)
	}
}

func TestDominanceIrreflexive(t *testing.T) {
	f := func(vals []float64) bool {
		t := Tuple(vals)
		return !Dominates(t, t)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimensionality mismatch")
		}
	}()
	Compare(Tuple{1}, Tuple{1, 2})
}

func TestDominatesWeak(t *testing.T) {
	if !DominatesWeak(Tuple{1, 1}, Tuple{1, 1}) {
		t.Error("equal tuples must weakly dominate")
	}
	if !DominatesWeak(Tuple{1, 1}, Tuple{1, 2}) {
		t.Error("dominating tuple must weakly dominate")
	}
	if DominatesWeak(Tuple{2, 1}, Tuple{1, 2}) {
		t.Error("incomparable tuples must not weakly dominate")
	}
}

func TestMinMaxWith(t *testing.T) {
	a := Tuple{1, 5, 3}
	b := Tuple{2, 2, 4}
	mn := a.Clone()
	mn.MinWith(b)
	if !mn.Equal(Tuple{1, 2, 3}) {
		t.Errorf("MinWith: got %v", mn)
	}
	mx := a.Clone()
	mx.MaxWith(b)
	if !mx.Equal(Tuple{2, 5, 4}) {
		t.Errorf("MaxWith: got %v", mx)
	}
}

func TestValid(t *testing.T) {
	if !(Tuple{1, 2}).Valid() {
		t.Error("finite tuple must be valid")
	}
	if (Tuple{1, math.NaN()}).Valid() {
		t.Error("NaN tuple must be invalid")
	}
	if (Tuple{math.Inf(1), 1}).Valid() {
		t.Error("Inf tuple must be invalid")
	}
}

func TestListValidate(t *testing.T) {
	good := List{{1, 2}, {3, 4}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid list rejected: %v", err)
	}
	if err := (List{}).Validate(); err != nil {
		t.Errorf("empty list rejected: %v", err)
	}
	bad := List{{1, 2}, {3}}
	if err := bad.Validate(); err == nil {
		t.Error("dimension mismatch not detected")
	}
	nan := List{{1, math.NaN()}}
	if err := nan.Validate(); err == nil {
		t.Error("NaN not detected")
	}
	zero := List{{}}
	if err := zero.Validate(); err == nil {
		t.Error("zero-dimensional tuple not detected")
	}
}

func TestEqualAsMultiset(t *testing.T) {
	a := List{{1, 2}, {3, 4}, {1, 2}}
	if !EqualAsMultiset(a, List{{3, 4}, {1, 2}, {1, 2}}) {
		t.Error("order should not matter")
	}
	if EqualAsMultiset(a, List{{1, 2}, {3, 4}, {3, 4}}) {
		t.Error("multiplicities differ but lists reported equal")
	}
	if EqualAsMultiset(a, List{{1, 2}, {3, 4}}) || !EqualAsMultiset(nil, List{}) {
		t.Error("lengths mishandled")
	}
	if !a[0].Equal(Tuple{1, 2}) || !a[1].Equal(Tuple{3, 4}) {
		t.Error("EqualAsMultiset reordered its argument")
	}
}

func TestEqualAsSet(t *testing.T) {
	a := List{{1, 2}, {3, 4}}
	b := List{{3, 4}, {1, 2}}
	if !EqualAsSet(a, b) {
		t.Error("order must not matter")
	}
	c := List{{1, 2}}
	if EqualAsSet(a, c) {
		t.Error("different sets reported equal")
	}
	if !EqualAsSet(List{}, List{}) {
		t.Error("empty sets must be equal")
	}
}

func TestSum(t *testing.T) {
	if got := (Tuple{1, 2, 3}).Sum(); got != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
	// SFS invariant: a dominating tuple never has a larger sum.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		d := 1 + rng.Intn(5)
		a, b := make(Tuple, d), make(Tuple, d)
		for k := 0; k < d; k++ {
			a[k] = rng.Float64()
			b[k] = rng.Float64()
		}
		if Dominates(a, b) && a.Sum() >= b.Sum() {
			t.Fatalf("dominating tuple %v has sum >= dominated %v", a, b)
		}
	}
}

func TestString(t *testing.T) {
	if got := (Tuple{1, 2.5}).String(); got != "(1, 2.5)" {
		t.Errorf("String = %q", got)
	}
	if got := (Tuple{}).String(); got != "()" {
		t.Errorf("empty String = %q", got)
	}
}

func TestDominanceResultString(t *testing.T) {
	for r, want := range map[DominanceResult]string{
		DomNone:  "incomparable",
		DomLeft:  "dominates",
		DomRight: "dominated-by",
		DomEqual: "equals",
	} {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", r, got, want)
		}
	}
	if got := DominanceResult(42).String(); got != "DominanceResult(42)" {
		t.Errorf("unknown String = %q", got)
	}
}
