package core_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"mrskyline/internal/core"
	"mrskyline/internal/datagen"
	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/tuple"
)

// signPatterns returns every Maximize pattern for d dimensions as
// EncodeRows' sign vectors: nil for the all-minimize one, else ±1 per
// dimension.
func signPatterns(d int) [][]float64 {
	patterns := [][]float64{nil}
	for mask := 1; mask < 1<<d; mask++ {
		signs := make([]float64, d)
		for k := range signs {
			signs[k] = 1
			if mask&(1<<k) != 0 {
				signs[k] = -1
			}
		}
		patterns = append(patterns, signs)
	}
	return patterns
}

// arenaBytes concatenates an input's record values in split order.
func arenaBytes(t *testing.T, in mapreduce.Input) []byte {
	t.Helper()
	splits, err := in.Splits(1)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, s := range splits {
		s.Each(func(rec mapreduce.Record) error {
			out = append(out, rec.Value...)
			return nil
		})
	}
	return out
}

func sameBits(a, b tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// TestEncodeRowsMatchesSweeps holds the one input pass to the sweeps it
// replaced: orienting every row into a list, grid.DataBounds over that
// list, and TupleInput's records over it. The arena must hold exactly the
// records' bytes, lo/hi must be DataBounds' bit for bit (a −0 beside a +0
// keeps the first one seen, which Go's builtin min would not), and
// malformed rows must fail with Validate's text and index over the
// caller's rows, never the negated ones.
func TestEncodeRowsMatchesSweeps(t *testing.T) {
	negZero := math.Copysign(0, -1)
	constant := func(v float64) tuple.List {
		return tuple.List{{v, 0.25, v}, {v, 0.75, v}, {v, 0.5, v}}
	}
	datasets := map[string]tuple.List{
		"signed zeros first": {{negZero, 0, 1}, {0, negZero, 2}, {negZero, negZero, 0.5}},
		"signed zeros only":  {{0, negZero}, {negZero, 0}},
		"constant 1e17":      constant(1e17),
		"constant -1e300":    constant(-1e300),
		"constant +max":      constant(math.MaxFloat64),
		"constant -max":      constant(-math.MaxFloat64),
		"d=1":                {{3}, {1}, {2}, {1}},
		"single row":         {{0.5, -2, 7}},
		"single row d=1":     {{math.MaxFloat64}},
	}
	for _, dist := range []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated} {
		for _, shape := range [][2]int{{1, 2}, {17, 1}, {500, 3}, {300, 5}} {
			datasets[fmt.Sprintf("dist %d %dx%d", dist, shape[0], shape[1])] = datagen.Generate(dist, shape[0], shape[1], int64(shape[0]+shape[1]))
		}
	}
	for name, rows := range datasets {
		d := rows.Dim()
		patterns := signPatterns(min(d, 3))
		if d > 3 {
			patterns = [][]float64{nil, signPatterns(d)[len(signPatterns(d))-1]}
		}
		for _, signs := range patterns {
			oriented := make(tuple.List, len(rows))
			for i, row := range rows {
				oriented[i] = row.Clone()
				for k, s := range signs {
					oriented[i][k] *= s
				}
			}
			var want []byte
			for _, rec := range mapreduce.TupleInput(oriented).Records {
				want = append(want, rec.Value...)
			}
			wantLo, wantHi := grid.DataBounds(oriented)
			for _, checked := range []bool{false, true} {
				in, lo, hi, err := core.EncodeRows(rows, signs, checked)
				if err != nil {
					t.Fatalf("%s signs %v: %v", name, signs, err)
				}
				if in.Len() != len(rows) || in.Dim() != d {
					t.Errorf("%s signs %v: arena of %d × %d, want %d × %d", name, signs, in.Len(), in.Dim(), len(rows), d)
				}
				if got := arenaBytes(t, in); !bytes.Equal(got, want) {
					t.Errorf("%s signs %v: arena bytes differ from TupleInput's records", name, signs)
				}
				if !sameBits(lo, wantLo) || !sameBits(hi, wantHi) {
					t.Errorf("%s signs %v: bounds [%v, %v), DataBounds [%v, %v)", name, signs, lo, hi, wantLo, wantHi)
				}
			}
		}
	}

	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string][][]float64{
		"short row":      {{1, 2}, {3, 4}, {5}},
		"long row":       {{1, 2}, {3, 4, 5}},
		"NaN first":      {{nan, 1}, {2, 3}},
		"+Inf last":      {{1, 2}, {3, 4}, {5, inf}},
		"-Inf middle":    {{1, 2}, {-inf, 4}, {5, 6}},
		"zero-dim":       {{}, {}},
		"ragged and NaN": {{1, 2}, {nan}, {3, nan}},
	}
	for name, rows := range bad {
		want := make(tuple.List, len(rows))
		for i, row := range rows {
			want[i] = row
		}
		wantErr := want.Validate()
		if wantErr == nil {
			t.Fatalf("%s: Validate accepts the rows", name)
		}
		for _, signs := range signPatterns(min(len(rows[0]), 2)) {
			if len(signs) != len(rows[0]) {
				signs = nil
			}
			_, _, _, err := core.EncodeRows(rows, signs, false)
			if err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s signs %v: error %v, want %v", name, signs, err, wantErr)
			}
		}
	}
}

// TestEncodeRowsAllocs guards the pass's footprint: a constant number of
// objects whatever the cardinality (the arena, the bounds and one scratch
// row — no per-row allocation), and no more bytes than the arena's
// n·(1 + 8d) plus 4 KiB. The runtime rounds a large object up to whole
// 8 KiB pages, so the larger n makes the arena exactly 50 of them.
func TestEncodeRowsAllocs(t *testing.T) {
	const d = 3
	signs := []float64{1, -1, 1}
	var counts []float64
	for _, n := range []int{1024, 16384} {
		rows := datagen.Generate(datagen.Independent, n, d, 1)
		encode := func() {
			if _, _, _, err := core.EncodeRows(rows, signs, false); err != nil {
				t.Fatal(err)
			}
		}
		counts = append(counts, testing.AllocsPerRun(5, encode))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		encode()
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*(1+8*d)+4096); got > limit {
			t.Errorf("n = %d: the pass allocated %d bytes, want ≤ %d", n, got, limit)
		}
	}
	if counts[0] != counts[1] || counts[0] > 4 {
		t.Errorf("allocations per pass = %v at n = 1024 and 16384, want one constant ≤ 4", counts)
	}
}
