package mrskyline

import (
	"context"
	"fmt"
	"math"

	"mrskyline/internal/tuple"
)

// Range is a closed per-dimension interval used by constrained skyline
// queries. Use math.Inf values to leave a side open; NaN bounds are
// rejected.
type Range struct {
	Min, Max float64
}

// Unbounded is the range imposing no constraint.
func Unbounded() Range { return Range{Min: math.Inf(-1), Max: math.Inf(1)} }

// contains reports whether v lies within the range.
func (r Range) contains(v float64) bool { return v >= r.Min && v <= r.Max }

// ComputeConstrained returns the constrained skyline: the skyline of the
// tuples falling inside every dimension's range (the constrained skyline
// query of [Chen, Cui, Lu, TKDE 2011], cited by the paper). constraints
// must have one Range per dimension; tuples outside any range are excluded
// before the skyline computation, so the result can contain tuples that a
// filtered-out tuple would have dominated — exactly the constrained
// skyline semantics.
//
// Arguments are validated before the empty-data fast path, and rows are
// validated before range filtering: a row with a NaN value is an error,
// not a silently filtered-out tuple (NaN lies outside every Range).
func ComputeConstrained(data [][]float64, constraints []Range, opts Options) (*Result, error) {
	s, err := oneShot(opts)
	if err != nil {
		return nil, err
	}
	return s.Dataset(data).ComputeConstrained(context.Background(), constraints, opts)
}

// validateConstraints checks the data-independent constraint invariants:
// at least one range, no NaN bounds, no inverted range, and agreement
// with opts.Maximize when both are given.
func validateConstraints(constraints []Range, opts Options) error {
	if len(constraints) == 0 {
		return fmt.Errorf("mrskyline: constrained query needs one Range per dimension, got none")
	}
	for k, r := range constraints {
		if math.IsNaN(r.Min) || math.IsNaN(r.Max) {
			return fmt.Errorf("mrskyline: constraint %d has a NaN bound", k)
		}
		if r.Min > r.Max {
			return fmt.Errorf("mrskyline: constraint %d is inverted: Min %v > Max %v", k, r.Min, r.Max)
		}
	}
	if opts.Maximize != nil && len(opts.Maximize) != len(constraints) {
		return fmt.Errorf("mrskyline: %d constraints but Maximize has %d entries", len(constraints), len(opts.Maximize))
	}
	return nil
}

// filterConstrained validates the rows and keeps those inside every
// range, in one pass: each row is checked, then tested against the box, so
// a dataset Compute rejects (ragged rows, NaN/Inf values) fails here too —
// with the first bad row's index, wherever that row lies relative to the
// box — instead of being filtered into acceptance. validated skips the row
// check for a caller that already made it. The result grows by append: a
// narrow box over a large dataset keeps a few rows, not a dataset-sized
// buffer.
func filterConstrained(data [][]float64, constraints []Range, validated bool) ([][]float64, error) {
	if len(data) == 0 {
		return nil, nil
	}
	d := len(data[0])
	if len(constraints) != d {
		return nil, fmt.Errorf("mrskyline: %d constraints for %d-dimensional data", len(constraints), d)
	}
	var filtered [][]float64
rows:
	for i, row := range data {
		if !validated {
			if err := tuple.CheckAt(i, row, d); err != nil {
				return nil, fmt.Errorf("mrskyline: %w", err)
			}
		}
		for k, v := range row {
			if !constraints[k].contains(v) {
				continue rows
			}
		}
		filtered = append(filtered, row)
	}
	return filtered, nil
}

// ComputeSubspace returns the subspace skyline over the selected 0-based
// dimensions (cf. SUBSKY [Tao, Xiao, Pei, ICDE 2006], cited by the paper):
// the skyline of the data projected onto dims. Result rows contain only
// the selected dimensions, in the order given. opts.Maximize, when set,
// applies to the projected dimensions.
//
// Arguments are validated before the empty-data fast path: an empty,
// duplicate or negative dims selection, or a Maximize length disagreeing
// with dims, is an error regardless of data.
func ComputeSubspace(data [][]float64, dims []int, opts Options) (*Result, error) {
	s, err := oneShot(opts)
	if err != nil {
		return nil, err
	}
	return s.Dataset(data).ComputeSubspace(context.Background(), dims, opts)
}

// validateDims checks the data-independent subspace invariants: a
// non-empty selection of distinct non-negative dimensions, agreeing with
// opts.Maximize when both are given. Upper bounds need the data's
// dimensionality and are checked in projectSubspace.
func validateDims(dims []int, opts Options) error {
	if len(dims) == 0 {
		return fmt.Errorf("mrskyline: no subspace dimensions selected")
	}
	seen := make(map[int]bool, len(dims))
	for _, k := range dims {
		if k < 0 {
			return fmt.Errorf("mrskyline: negative subspace dimension %d", k)
		}
		if seen[k] {
			return fmt.Errorf("mrskyline: subspace dimension %d selected twice", k)
		}
		seen[k] = true
	}
	if opts.Maximize != nil && len(opts.Maximize) != len(dims) {
		return fmt.Errorf("mrskyline: %d subspace dimensions but Maximize has %d entries", len(dims), len(opts.Maximize))
	}
	return nil
}

// projectSubspace checks dims against the data's dimensionality and
// returns the projected rows, each a capacity-clipped window of one
// len(data) × len(dims) slab (as core.EncodeRows' oriented copy is): one
// allocation for the values instead of one per row, and an append to a row
// cannot reach its neighbour.
func projectSubspace(data [][]float64, dims []int) ([][]float64, error) {
	if len(data) == 0 {
		return nil, nil
	}
	d := len(data[0])
	for _, k := range dims {
		if k >= d {
			return nil, fmt.Errorf("mrskyline: subspace dimension %d out of range [0,%d)", k, d)
		}
	}
	n := len(dims)
	slab := make([]float64, len(data)*n)
	projected := make([][]float64, len(data))
	for i, row := range data {
		if len(row) != d {
			return nil, fmt.Errorf("mrskyline: ragged row of %d columns, want %d", len(row), d)
		}
		p := slab[i*n : (i+1)*n : (i+1)*n]
		for j, k := range dims {
			p[j] = row[k]
		}
		projected[i] = p
	}
	return projected, nil
}
