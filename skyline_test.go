package mrskyline_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	mrskyline "mrskyline"
)

// naive computes the reference skyline under the given orientation.
func naive(data [][]float64, maximize []bool) [][]float64 {
	var out [][]float64
	for i, t := range data {
		dominated := false
		for j, u := range data {
			if i != j && mrskyline.Dominates(u, t, maximize) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, t)
		}
	}
	return out
}

func sameSet(a, b [][]float64) bool {
	contains := func(set [][]float64, row []float64) bool {
	next:
		for _, s := range set {
			if len(s) != len(row) {
				continue
			}
			for k := range s {
				if s[k] != row[k] {
					continue next
				}
			}
			return true
		}
		return false
	}
	for _, r := range a {
		if !contains(b, r) {
			return false
		}
	}
	for _, r := range b {
		if !contains(a, r) {
			return false
		}
	}
	return true
}

func TestComputeDefaultsToGPMRS(t *testing.T) {
	data, _ := mrskyline.Generate("independent", 200, 2, 1)
	res, err := mrskyline.Compute(data, mrskyline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Algorithm != "MR-GPMRS" {
		t.Errorf("default Algorithm = %q", res.Stats.Algorithm)
	}
	if res.Stats.PPD < 2 || res.Stats.Partitions == 0 {
		t.Errorf("grid stats missing: %+v", res.Stats)
	}
}

func TestComputeNonUnitDomain(t *testing.T) {
	// Real-world-looking data far from the unit box: hotel price [50, 900]
	// and distance [0.1, 25].
	rng := rand.New(rand.NewSource(9))
	data := make([][]float64, 500)
	for i := range data {
		data[i] = []float64{50 + rng.Float64()*850, 0.1 + rng.Float64()*24.9}
	}
	want := naive(data, nil)
	for _, algo := range []mrskyline.Algorithm{mrskyline.GPSRS, mrskyline.GPMRS, mrskyline.MRBNL, mrskyline.MRAngle} {
		res, err := mrskyline.Compute(data, mrskyline.Options{Algorithm: algo, Nodes: 3})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !sameSet(res.Skyline, want) {
			t.Fatalf("%s: wrong skyline on non-unit domain", algo)
		}
	}
}

func TestComputeMaximize(t *testing.T) {
	// Minimize price, maximize rating.
	data := [][]float64{
		{100, 4.5},
		{80, 4.0},
		{120, 5.0},
		{90, 3.0}, // dominated by {80, 4.0}
		{80, 4.5}, // dominates {100, 4.5} and {80, 4.0}
	}
	maximize := []bool{false, true}
	want := naive(data, maximize)
	res, err := mrskyline.Compute(data, mrskyline.Options{Maximize: maximize, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(res.Skyline, want) {
		t.Fatalf("maximize skyline = %v, want %v", res.Skyline, want)
	}
	// Values must come back in their original orientation.
	for _, row := range res.Skyline {
		if row[1] < 0 {
			t.Fatalf("rating came back negated: %v", row)
		}
	}
}

func TestComputeMaximizeAllDims(t *testing.T) {
	data, _ := mrskyline.Generate("anticorrelated", 300, 3, 4)
	maximize := []bool{true, true, true}
	want := naive(data, maximize)
	res, err := mrskyline.Compute(data, mrskyline.Options{Maximize: maximize, Nodes: 3, Algorithm: mrskyline.GPSRS})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(res.Skyline, want) {
		t.Fatalf("all-maximize skyline wrong: %d vs %d", len(res.Skyline), len(want))
	}
}

func TestComputeInputNotModified(t *testing.T) {
	data := [][]float64{{3, 1}, {1, 3}, {2, 2}}
	orig := make([][]float64, len(data))
	for i, r := range data {
		orig[i] = append([]float64(nil), r...)
	}
	if _, err := mrskyline.Compute(data, mrskyline.Options{Maximize: []bool{true, false}, Nodes: 2}); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		for k := range data[i] {
			if data[i][k] != orig[i][k] {
				t.Fatal("Compute modified its input")
			}
		}
	}
}

func TestComputeValidation(t *testing.T) {
	if _, err := mrskyline.Compute([][]float64{{1, 2}}, mrskyline.Options{Maximize: []bool{true}}); err == nil {
		t.Error("mismatched Maximize accepted")
	}
	if _, err := mrskyline.Compute([][]float64{{1, 2}, {3}}, mrskyline.Options{}); err == nil {
		t.Error("ragged data accepted")
	}
	for _, algo := range []mrskyline.Algorithm{"MR-Quantum", "MR-Bitmap"} {
		if _, err := mrskyline.Compute([][]float64{{1}}, mrskyline.Options{Algorithm: algo}); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			t.Errorf("%s: err = %v, want unknown algorithm", algo, err)
		}
	}
}

func TestComputeEmpty(t *testing.T) {
	res, err := mrskyline.Compute(nil, mrskyline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) != 0 || res.Stats.Algorithm != "MR-GPMRS" {
		t.Errorf("empty Compute = %+v", res)
	}
}

func TestComputeConstantDimension(t *testing.T) {
	// A constant dimension makes the bounding box empty on that axis; the
	// facade must widen it rather than fail.
	data := [][]float64{{1, 7}, {2, 7}, {3, 7}}
	res, err := mrskyline.Compute(data, mrskyline.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) != 1 || res.Skyline[0][0] != 1 {
		t.Errorf("constant-dim skyline = %v", res.Skyline)
	}
}

func TestGenerateAndCSV(t *testing.T) {
	data, err := mrskyline.Generate("correlated", 50, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 50 || len(data[0]) != 4 {
		t.Fatalf("Generate shape = %dx%d", len(data), len(data[0]))
	}
	if _, err := mrskyline.Generate("zipfian", 10, 2, 1); err == nil {
		t.Error("unknown distribution accepted")
	}
	var buf bytes.Buffer
	if err := mrskyline.WriteCSV(&buf, data); err != nil {
		t.Fatal(err)
	}
	back, err := mrskyline.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(data, back) {
		t.Error("CSV round trip lost tuples")
	}
	if _, err := mrskyline.ReadCSV(strings.NewReader("a,b\n")); err == nil {
		t.Error("garbage CSV accepted")
	}
}

func TestDominatesHelper(t *testing.T) {
	if !mrskyline.Dominates([]float64{1, 1}, []float64{2, 2}, nil) {
		t.Error("minimize dominance wrong")
	}
	if !mrskyline.Dominates([]float64{2, 2}, []float64{1, 1}, []bool{true, true}) {
		t.Error("maximize dominance wrong")
	}
	if mrskyline.Dominates([]float64{1, 1}, []float64{1, 1}, nil) {
		t.Error("equal tuples dominate")
	}
	if mrskyline.Dominates([]float64{1}, []float64{1, 2}, nil) {
		t.Error("mismatched lengths dominate")
	}
}

func TestComputeKernels(t *testing.T) {
	data, _ := mrskyline.Generate("anticorrelated", 300, 3, 6)
	want := naive(data, nil)
	for _, kernel := range []string{"", "bnl", "sfs"} {
		res, err := mrskyline.Compute(data, mrskyline.Options{
			Algorithm: mrskyline.GPMRS,
			Nodes:     3,
			Kernel:    kernel,
		})
		if err != nil {
			t.Fatalf("kernel %q: %v", kernel, err)
		}
		if !sameSet(res.Skyline, want) {
			t.Fatalf("kernel %q: wrong skyline", kernel)
		}
	}
	for _, kernel := range []string{"quantum", "bbs", "dc"} {
		if _, err := mrskyline.Compute(data, mrskyline.Options{Kernel: kernel}); err == nil {
			t.Errorf("unknown kernel %q accepted", kernel)
		}
	}
	res, err := mrskyline.Compute(data, mrskyline.Options{Kernel: "sfs", Nodes: 2})
	if err != nil || !sameSet(res.Skyline, want) {
		t.Errorf("Kernel \"sfs\" path broken: %v", err)
	}
}
