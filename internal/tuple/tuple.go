// Package tuple defines the multi-dimensional tuple model used throughout
// the library, together with the tuple dominance relation (Definition 1 of
// the paper) and a compact binary codec used when tuples cross the
// MapReduce shuffle.
//
// All algorithms in this repository assume a minimization skyline: a smaller
// value is better on every dimension, matching the convention adopted by the
// paper ("this paper assumes that a smaller value is better").
package tuple

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Tuple is a point in d-dimensional space. The dimensionality is the slice
// length; all tuples taking part in one skyline computation must share it.
type Tuple []float64

// Dim returns the dimensionality of the tuple.
func (t Tuple) Dim() int { return len(t) }

// Clone returns a deep copy of t.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports whether t and u have the same dimensionality and identical
// values on every dimension.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// String renders the tuple as "(v0, v1, ...)" with compact float formatting.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// DominanceResult classifies the relationship between two tuples as seen
// from the first tuple's perspective.
type DominanceResult int8

const (
	// DomNone means neither tuple dominates the other.
	DomNone DominanceResult = iota
	// DomLeft means the first tuple dominates the second.
	DomLeft
	// DomRight means the first tuple is dominated by the second.
	DomRight
	// DomEqual means the tuples coincide on every dimension. Equal tuples do
	// not dominate each other under Definition 1.
	DomEqual
)

// String implements fmt.Stringer for DominanceResult.
func (r DominanceResult) String() string {
	switch r {
	case DomNone:
		return "incomparable"
	case DomLeft:
		return "dominates"
	case DomRight:
		return "dominated-by"
	case DomEqual:
		return "equals"
	default:
		return fmt.Sprintf("DominanceResult(%d)", int8(r))
	}
}

// Compare performs a single pass over both tuples and classifies their
// dominance relationship (Definition 1, minimization semantics):
// t dominates u iff t is not worse (not larger) than u on all dimensions and
// strictly better (smaller) on at least one.
//
// Compare panics if the tuples disagree on dimensionality: mixing
// dimensionalities is a programming error, not a data condition.
func Compare(t, u Tuple) DominanceResult {
	if len(t) != len(u) {
		panic(fmt.Sprintf("tuple: dimensionality mismatch %d vs %d", len(t), len(u)))
	}
	better, worse := false, false
	for i := range t {
		switch {
		case t[i] < u[i]:
			better = true
		case t[i] > u[i]:
			worse = true
		}
		if better && worse {
			return DomNone
		}
	}
	switch {
	case better && !worse:
		return DomLeft
	case worse && !better:
		return DomRight
	default:
		return DomEqual
	}
}

// Dominates reports whether t dominates u under Definition 1.
func Dominates(t, u Tuple) bool { return Compare(t, u) == DomLeft }

// DominatesWeak reports whether t is not worse than u on every dimension
// (i.e. t dominates u or t equals u). The grid partition dominance check
// uses this weak form on cell corners; see internal/grid.
func DominatesWeak(t, u Tuple) bool {
	r := Compare(t, u)
	return r == DomLeft || r == DomEqual
}

// Sum returns the sum of the tuple's entries. It is the classic monotone
// scoring function used by the SFS presorting technique: if sum(t) < sum(u),
// then u cannot dominate t.
func (t Tuple) Sum() float64 {
	s := 0.0
	for _, v := range t {
		s += v
	}
	return s
}

// MinWith lowers each entry of t to the minimum of t and u in place.
// Both tuples must share dimensionality.
func (t Tuple) MinWith(u Tuple) {
	for i := range t {
		if u[i] < t[i] {
			t[i] = u[i]
		}
	}
}

// MaxWith raises each entry of t to the maximum of t and u in place.
// Both tuples must share dimensionality.
func (t Tuple) MaxWith(u Tuple) {
	for i := range t {
		if u[i] > t[i] {
			t[i] = u[i]
		}
	}
}

// Valid reports whether every entry of the tuple is a finite number.
// NaN and infinities break the transitivity arguments the skyline
// algorithms rely on, so loaders reject such tuples up front.
func (t Tuple) Valid() bool {
	for _, v := range t {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// List is a set of tuples sharing one dimensionality.
type List []Tuple

// Clone deep-copies the list.
func (l List) Clone() List {
	c := make(List, len(l))
	for i, t := range l {
		c[i] = t.Clone()
	}
	return c
}

// Dim returns the dimensionality of the list's tuples, or 0 for an empty
// list.
func (l List) Dim() int {
	if len(l) == 0 {
		return 0
	}
	return len(l[0])
}

// Validate checks that all tuples share one dimensionality and contain only
// finite values.
func (l List) Validate() error {
	if len(l) == 0 {
		return nil
	}
	d := len(l[0])
	for i, t := range l {
		if d == 0 || len(t) != d || !t.Valid() {
			return malformedAt(i, t, d)
		}
	}
	return nil
}

// CheckAt is Validate's verdict on one tuple: t, the i-th of a list whose
// first tuple has d dimensions, must have d ≥ 1 finite values. A caller
// that walks its rows anyway applies it per row, in index order, and gets
// Validate's error without building a List.
func CheckAt(i int, t Tuple, d int) error {
	if d != 0 && len(t) == d && t.Valid() {
		return nil
	}
	return malformedAt(i, t, d)
}

// malformedAt words the failure of Validate and CheckAt; kept apart so that
// their per-tuple checks stay small (Validate's loop makes no call per
// tuple; a grid query over well-formed rows checks each row once, in the
// Dataset handle's scan or in its input pass).
func malformedAt(i int, t Tuple, d int) error {
	switch {
	case d == 0:
		return fmt.Errorf("tuple: zero-dimensional tuple at index %d", i)
	case len(t) != d:
		return fmt.Errorf("tuple: dimensionality mismatch at index %d: got %d, want %d", i, len(t), d)
	default:
		return fmt.Errorf("tuple: non-finite value in tuple at index %d: %v", i, t)
	}
}

// Contains reports whether the list contains a tuple equal to t.
func (l List) Contains(t Tuple) bool {
	for _, u := range l {
		if t.Equal(u) {
			return true
		}
	}
	return false
}

// EqualAsSet reports whether two lists contain exactly the same tuples,
// ignoring order and multiplicity of duplicates beyond presence.
// It is intended for test assertions on skyline results, which are sets.
func EqualAsSet(a, b List) bool {
	return subset(a, b) && subset(b, a)
}

// EqualAsMultiset reports whether two lists contain the same tuples with
// the same multiplicities, ignoring order. It is the test assertion for a
// skyline over data with duplicates, where every copy of a skyline tuple
// must be returned (Definition 1: equal tuples do not dominate each other).
func EqualAsMultiset(a, b List) bool {
	if len(a) != len(b) {
		return false
	}
	byCoordinates := func(t, u Tuple) int { return slices.Compare(t, u) }
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, byCoordinates)
	slices.SortFunc(b, byCoordinates)
	return slices.EqualFunc(a, b, Tuple.Equal)
}

func subset(a, b List) bool {
	for _, t := range a {
		if !b.Contains(t) {
			return false
		}
	}
	return true
}
