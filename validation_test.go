package mrskyline_test

import (
	"math"
	"testing"

	mrskyline "mrskyline"
)

// TestValidationContract crosses {empty, non-empty} data with every
// invalid-argument class of the three public Compute functions. Rows with
// onEmpty true are data-independent checks that must fire even on empty
// input — the regression surface of the empty-fast-path bugs, where
// Compute echoed an unknown algorithm back as success and the constrained
// and subspace queries skipped argument validation entirely.
func TestValidationContract(t *testing.T) {
	valid := [][]float64{{1, 2}, {3, 1}}
	nan := math.NaN()
	unb := []mrskyline.Range{mrskyline.Unbounded(), mrskyline.Unbounded()}

	type call func(data [][]float64) error
	compute := func(opts mrskyline.Options) call {
		return func(data [][]float64) error {
			_, err := mrskyline.Compute(data, opts)
			return err
		}
	}
	constrained := func(cons []mrskyline.Range, opts mrskyline.Options) call {
		return func(data [][]float64) error {
			_, err := mrskyline.ComputeConstrained(data, cons, opts)
			return err
		}
	}
	subspace := func(dims []int, opts mrskyline.Options) call {
		return func(data [][]float64) error {
			_, err := mrskyline.ComputeSubspace(data, dims, opts)
			return err
		}
	}

	cases := []struct {
		name string
		call call
		// onEmpty: the check is data-independent and must fire on empty
		// data too. false: the check needs the data's dimensionality, so
		// empty data must succeed.
		onEmpty bool
	}{
		{"compute/unknown algorithm", compute(mrskyline.Options{Algorithm: "MR-Nope"}), true},
		{"compute/unknown kernel", compute(mrskyline.Options{Kernel: "quantum"}), true},
		// Not served: SKY-MR and D&C run only in the figures, MR-SFS nowhere.
		{"compute/MR-SFS", compute(mrskyline.Options{Algorithm: "MR-SFS"}), true},
		{"compute/SKY-MR", compute(mrskyline.Options{Algorithm: "SKY-MR"}), true},
		{"compute/dc kernel", compute(mrskyline.Options{Kernel: "dc"}), true},
		{"compute/negative nodes", compute(mrskyline.Options{Nodes: -1}), true},
		{"compute/negative slots", compute(mrskyline.Options{SlotsPerNode: -2}), true},
		{"compute/negative mappers", compute(mrskyline.Options{Mappers: -3}), true},
		{"compute/negative reducers", compute(mrskyline.Options{Reducers: -1}), true},
		{"compute/negative ppd", compute(mrskyline.Options{PPD: -1}), true},
		{"compute/ppd 1", compute(mrskyline.Options{PPD: 1}), true},
		{"compute/MR-BNL ppd 1", compute(mrskyline.Options{Algorithm: mrskyline.MRBNL, PPD: 1}), true},
		{"compute/maximize length vs d", compute(mrskyline.Options{Maximize: []bool{true}}), false},
		{"constrained/no constraints", constrained(nil, mrskyline.Options{}), true},
		{"constrained/nan bound", constrained([]mrskyline.Range{{Min: nan, Max: 1}, mrskyline.Unbounded()}, mrskyline.Options{}), true},
		{"constrained/inverted range", constrained([]mrskyline.Range{{Min: 2, Max: 1}, mrskyline.Unbounded()}, mrskyline.Options{}), true},
		{"constrained/maximize vs constraints", constrained(unb, mrskyline.Options{Maximize: []bool{true}}), true},
		{"constrained/unknown algorithm", constrained(unb, mrskyline.Options{Algorithm: "MR-Nope"}), true},
		{"constrained/unknown kernel", constrained(unb, mrskyline.Options{Kernel: "quantum"}), true},
		{"constrained/negative ppd", constrained(unb, mrskyline.Options{PPD: -1}), true},
		{"constrained/arity vs d", constrained([]mrskyline.Range{mrskyline.Unbounded()}, mrskyline.Options{}), false},
		{"subspace/empty dims", subspace(nil, mrskyline.Options{}), true},
		{"subspace/negative dim", subspace([]int{0, -1}, mrskyline.Options{}), true},
		{"subspace/duplicate dim", subspace([]int{0, 0}, mrskyline.Options{}), true},
		{"subspace/maximize vs dims", subspace([]int{0}, mrskyline.Options{Maximize: []bool{true, false}}), true},
		{"subspace/unknown algorithm", subspace([]int{0}, mrskyline.Options{Algorithm: "MR-Nope"}), true},
		{"subspace/unknown kernel", subspace([]int{0}, mrskyline.Options{Kernel: "quantum"}), true},
		{"subspace/ppd 1", subspace([]int{0}, mrskyline.Options{PPD: 1}), true},
		{"subspace/dim vs d", subspace([]int{5}, mrskyline.Options{}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(valid); err == nil {
				t.Error("non-empty data: invalid arguments accepted")
			}
			err := tc.call(nil)
			if tc.onEmpty && err == nil {
				t.Error("empty data: invalid arguments accepted")
			}
			if !tc.onEmpty && err != nil {
				t.Errorf("empty data: data-dependent check fired early: %v", err)
			}
		})
	}
}

// TestConstrainedRejectsNaNRows pins the NaN-row fix: a NaN lies outside
// every Range, so before rows were validated ahead of filtering, a NaN
// row was silently dropped instead of reported — the same dataset Compute
// rejects must fail the constrained query too.
func TestConstrainedRejectsNaNRows(t *testing.T) {
	data := [][]float64{
		{0.5, 0.5},
		{math.NaN(), 0.2},
	}
	unb := []mrskyline.Range{mrskyline.Unbounded(), mrskyline.Unbounded()}
	if _, err := mrskyline.ComputeConstrained(data, unb, mrskyline.Options{Nodes: 2}); err == nil {
		t.Fatal("NaN row was silently filtered out instead of rejected")
	}
	// Same for infinities, which Compute also rejects.
	data[1][0] = math.Inf(1)
	if _, err := mrskyline.ComputeConstrained(data, unb, mrskyline.Options{Nodes: 2}); err == nil {
		t.Fatal("Inf row was silently filtered out instead of rejected")
	}
}

// TestEmptyDataStillSucceedsWithValidArgs guards the other side of the
// contract: hoisting validation must not break the empty fast paths.
func TestEmptyDataStillSucceedsWithValidArgs(t *testing.T) {
	if res, err := mrskyline.Compute(nil, mrskyline.Options{Algorithm: mrskyline.GPSRS}); err != nil || len(res.Skyline) != 0 {
		t.Errorf("Compute(nil) = %v, %v", res, err)
	}
	unb := []mrskyline.Range{mrskyline.Unbounded()}
	if res, err := mrskyline.ComputeConstrained(nil, unb, mrskyline.Options{}); err != nil || len(res.Skyline) != 0 {
		t.Errorf("ComputeConstrained(nil) = %v, %v", res, err)
	}
	if res, err := mrskyline.ComputeSubspace(nil, []int{0, 1}, mrskyline.Options{}); err != nil || len(res.Skyline) != 0 {
		t.Errorf("ComputeSubspace(nil) = %v, %v", res, err)
	}
}
