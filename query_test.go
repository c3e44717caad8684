package mrskyline_test

import (
	"math"
	"testing"

	mrskyline "mrskyline"
)

func TestComputeConstrained(t *testing.T) {
	data := [][]float64{
		{0.1, 0.9}, // outside the price constraint below
		{0.4, 0.5},
		{0.5, 0.4},
		{0.6, 0.6}, // dominated by {0.5, 0.4} within the region
		{0.45, 0.45},
	}
	constraints := []mrskyline.Range{
		{Min: 0.3, Max: 0.7},
		mrskyline.Unbounded(),
	}
	res, err := mrskyline.ComputeConstrained(data, constraints, mrskyline.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{0.4, 0.5}, {0.5, 0.4}, {0.45, 0.45}}
	if !sameSet(res.Skyline, want) {
		t.Fatalf("constrained skyline = %v, want %v", res.Skyline, want)
	}
}

func TestComputeConstrainedExcludedDominatorRevealsTuples(t *testing.T) {
	// The defining property of the constrained skyline: a dominator outside
	// the constraint region does not suppress tuples inside it.
	data := [][]float64{
		{0.05, 0.05}, // dominates everything, but excluded below
		{0.5, 0.5},
	}
	constraints := []mrskyline.Range{{Min: 0.2, Max: 1}, {Min: 0.2, Max: 1}}
	res, err := mrskyline.ComputeConstrained(data, constraints, mrskyline.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(res.Skyline, [][]float64{{0.5, 0.5}}) {
		t.Fatalf("constrained skyline = %v", res.Skyline)
	}
}

func TestComputeConstrainedValidation(t *testing.T) {
	data := [][]float64{{1, 2}}
	if _, err := mrskyline.ComputeConstrained(data, []mrskyline.Range{mrskyline.Unbounded()}, mrskyline.Options{}); err == nil {
		t.Error("wrong constraint arity accepted")
	}
	if _, err := mrskyline.ComputeConstrained([][]float64{{1, 2}, {3}}, []mrskyline.Range{mrskyline.Unbounded(), mrskyline.Unbounded()}, mrskyline.Options{}); err == nil {
		t.Error("ragged data accepted")
	}
	// Missing constraints are an error even on empty data (the empty
	// fast path no longer skips validation).
	if _, err := mrskyline.ComputeConstrained(nil, nil, mrskyline.Options{}); err == nil {
		t.Error("nil constraints accepted on empty data")
	}
	// Empty data with well-formed constraints passes through.
	res, err := mrskyline.ComputeConstrained(nil, []mrskyline.Range{mrskyline.Unbounded()}, mrskyline.Options{})
	if err != nil || len(res.Skyline) != 0 {
		t.Errorf("empty constrained = %v, %v", res, err)
	}
	// Constraints filtering everything out yield an empty skyline.
	res, err = mrskyline.ComputeConstrained(data, []mrskyline.Range{{Min: 5, Max: 6}, mrskyline.Unbounded()}, mrskyline.Options{Nodes: 2})
	if err != nil || len(res.Skyline) != 0 {
		t.Errorf("all-filtered constrained = %v, %v", res, err)
	}
}

func TestUnbounded(t *testing.T) {
	r := mrskyline.Unbounded()
	if !math.IsInf(r.Min, -1) || !math.IsInf(r.Max, 1) {
		t.Errorf("Unbounded = %+v", r)
	}
}

func TestComputeSubspace(t *testing.T) {
	// In the full space all three are incomparable; projected onto dims
	// {0, 1}, the third is dominated by the first.
	data := [][]float64{
		{0.2, 0.3, 0.9},
		{0.9, 0.1, 0.1},
		{0.3, 0.4, 0.05},
	}
	res, err := mrskyline.ComputeSubspace(data, []int{0, 1}, mrskyline.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{0.2, 0.3}, {0.9, 0.1}}
	if !sameSet(res.Skyline, want) {
		t.Fatalf("subspace skyline = %v, want %v", res.Skyline, want)
	}
}

func TestComputeSubspaceReorder(t *testing.T) {
	data := [][]float64{{1, 2, 3}}
	res, err := mrskyline.ComputeSubspace(data, []int{2, 0}, mrskyline.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) != 1 || res.Skyline[0][0] != 3 || res.Skyline[0][1] != 1 {
		t.Fatalf("reordered projection = %v", res.Skyline)
	}
}

func TestComputeSubspaceValidation(t *testing.T) {
	data := [][]float64{{1, 2}}
	if _, err := mrskyline.ComputeSubspace(data, nil, mrskyline.Options{}); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := mrskyline.ComputeSubspace(data, []int{2}, mrskyline.Options{}); err == nil {
		t.Error("out-of-range dim accepted")
	}
	if _, err := mrskyline.ComputeSubspace(data, []int{0, 0}, mrskyline.Options{}); err == nil {
		t.Error("duplicate dim accepted")
	}
	if _, err := mrskyline.ComputeSubspace([][]float64{{1, 2}, {3}}, []int{0}, mrskyline.Options{}); err == nil {
		t.Error("ragged data accepted")
	}
	res, err := mrskyline.ComputeSubspace(nil, []int{0}, mrskyline.Options{})
	if err != nil || len(res.Skyline) != 0 {
		t.Errorf("empty subspace = %v, %v", res, err)
	}
}
