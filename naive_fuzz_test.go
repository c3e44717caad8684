package mrskyline_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	mrskyline "mrskyline"
	"mrskyline/internal/skyline"
	"mrskyline/internal/tuple"
)

// fuzzRows reads data as rows: the first byte chooses d ∈ [1, 4], then
// every 8 bytes are one coordinate's float64 bit pattern, little-endian,
// up to 48 whole rows. A non-finite pattern has its exponent's top bit
// cleared, which leaves a finite value of the same sign and mantissa.
func fuzzRows(data []byte) [][]float64 {
	if len(data) == 0 {
		return nil
	}
	d := 1 + int(data[0])%4
	data = data[1:]
	var rows [][]float64
	for len(data) >= 8*d && len(rows) < 48 {
		row := make([]float64, d)
		for k := range row {
			bits := binary.LittleEndian.Uint64(data)
			if v := math.Float64frombits(bits); math.IsNaN(v) || math.IsInf(v, 0) {
				bits &^= 1 << 62
			}
			row[k], data = math.Float64frombits(bits), data[8:]
		}
		rows = append(rows, row)
	}
	return rows
}

// fuzzBytes encodes rows of width d as fuzzRows reads them.
func fuzzBytes(d int, vals ...float64) []byte {
	b := []byte{byte(d - 1)}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzComputeMatchesNaive holds every algorithm, at one to five reducers,
// to skyline.Naive's multiset over rows built from the fuzz bytes (see
// fuzzRows). The seed corpus is the edge palette earlier fixes were found
// on: sums that tie below an ulp, cell edges ± 1 ulp, sums beyond
// ±MaxFloat64, constant columns at extreme magnitudes, −0 beside +0,
// duplicates, d = 1, all-dominated and all-incomparable rows. Run it with
//
//	go test -run XXX -fuzz FuzzComputeMatchesNaive -fuzztime 20s -fuzzminimizetime 10x .
//
// Each new input is minimized in at most 10 runs: at the default 60 s a
// minimization stalls a 20 s run entirely.
func FuzzComputeMatchesNaive(f *testing.F) {
	half, third := 0.5, 1.0/3
	f.Add(fuzzBytes(2, 0.5, 1e-20, 0.5, 2e-20, 0.5+1e-17, 0, 1e-20, 0.5))
	f.Add(fuzzBytes(2, half, half, math.Nextafter(half, 0), half, half, math.Nextafter(half, 1),
		third, math.Nextafter(third, 1), math.Nextafter(third, 0), third, 0.25, 0.75, 0.75, 0.25))
	f.Add(fuzzBytes(3, 1e308, 1e308, -1e308, -1e308, 1e308, 1e308, 1e308, -1e308, 1e308,
		-math.MaxFloat64, math.MaxFloat64, 0, math.MaxFloat64, -math.MaxFloat64, 0))
	f.Add(fuzzBytes(4, 1e17, -1e300, math.MaxFloat64, 0.1, 1e17, -1e300, math.MaxFloat64, 0.2,
		1e17, -1e300, -math.MaxFloat64, 0.3, 1e17, -1e300, math.MaxFloat64, 0.05))
	f.Add(fuzzBytes(2, math.Copysign(0, -1), 0, 0, math.Copysign(0, -1), 0, 0, 0.5, -0.5))
	f.Add(fuzzBytes(1, 0.3, 0.1, 0.1, 0.7, 0.1, 0.2))
	f.Add(fuzzBytes(3, 0.1, 0.1, 0.1, 0.2, 0.2, 0.2, 0.3, 0.3, 0.3, 0.4, 0.4, 0.4, 0.2, 0.2, 0.2))
	f.Add(fuzzBytes(2, 0.0, 1.0, 0.125, 0.875, 0.25, 0.75, 0.375, 0.625, 0.5, 0.5, 0.625, 0.375, 0.75, 0.25, 1.0, 0.0))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := fuzzRows(data)
		if len(rows) == 0 {
			return
		}
		in := make(tuple.List, len(rows))
		for i, r := range rows {
			in[i] = tuple.Tuple(r).Clone()
		}
		want := skyline.Naive(in)
		for _, algo := range mrskyline.Algorithms() {
			for r := 1; r <= 5; r++ {
				name := fmt.Sprintf("%s r=%d d=%d n=%d", algo, r, len(rows[0]), len(rows))
				res, err := mrskyline.Compute(rows, mrskyline.Options{Algorithm: algo, Nodes: 3, Reducers: r})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := make(tuple.List, len(res.Skyline))
				for i, u := range res.Skyline {
					got[i] = u
				}
				if !tuple.EqualAsMultiset(got, want) {
					t.Fatalf("%s: got %v, skyline.Naive has %v", name, got, want)
				}
			}
		}
	})
}
