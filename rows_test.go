package mrskyline

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
)

// slabRows returns a copy of rows as views of one slab whose capacity runs
// to the slab's end, so that an append to a kept row would write the next
// row's values, which the bitwise comparison below then catches.
func slabRows(rows [][]float64) [][]float64 {
	d := len(rows[0])
	slab := make([]float64, len(rows)*d)
	out := make([][]float64, len(rows))
	for i, row := range rows {
		out[i] = slab[i*d : (i+1)*d]
		copy(out[i], row)
	}
	return out
}

// bitsOf is a bitwise deep copy of rows.
func bitsOf(rows [][]float64) [][]uint64 {
	out := make([][]uint64, len(rows))
	for i, row := range rows {
		out[i] = make([]uint64, len(row))
		for k, v := range row {
			out[i][k] = math.Float64bits(v)
		}
	}
	return out
}

// sameBitsAs reports the first value of rows that is not bit-identical to
// its copy, or "" when none differs.
func sameBitsAs(rows [][]float64, want [][]uint64) string {
	for i, row := range rows {
		if len(row) != len(want[i]) {
			return fmt.Sprintf("row %d has %d values, want %d", i, len(row), len(want[i]))
		}
		for k, v := range row {
			if math.Float64bits(v) != want[i][k] {
				return fmt.Sprintf("row %d value %d is %v, want %v", i, k, v, math.Float64frombits(want[i][k]))
			}
		}
	}
	return ""
}

// rowQuery is one query over rows that must leave them as they were.
type rowQuery struct {
	name string
	run  func(opts Options) (*Result, error)
}

// rowQueries lists every way a query reaches rows: the package-level
// functions, Service.Compute, and a Dataset handle over rows, whose first
// Compute prepares the plan that its second reuses.
func rowQueries(svc *Service, h *Dataset, rows [][]float64) []rowQuery {
	ctx := context.Background()
	box := []Range{{Min: 0.1, Max: 0.9}, Unbounded(), {Min: 0.05, Max: 1}}
	dims := []int{0, 2}
	sub := func(opts Options) Options {
		if opts.Maximize != nil {
			opts.Maximize = []bool{opts.Maximize[0], opts.Maximize[2]}
		}
		return opts
	}
	return []rowQuery{
		{"Compute", func(o Options) (*Result, error) { return Compute(rows, o) }},
		{"Service.Compute", func(o Options) (*Result, error) { return svc.Compute(ctx, rows, o) }},
		{"ComputeConstrained", func(o Options) (*Result, error) { return ComputeConstrained(rows, box, o) }},
		{"ComputeSubspace", func(o Options) (*Result, error) { return ComputeSubspace(rows, dims, sub(o)) }},
		{"handle, first use", func(o Options) (*Result, error) { return h.Compute(ctx, o) }},
		{"handle, reuse", func(o Options) (*Result, error) { return h.Compute(ctx, o) }},
		{"handle, constrained", func(o Options) (*Result, error) { return h.ComputeConstrained(ctx, box, o) }},
		{"handle, subspace", func(o Options) (*Result, error) { return h.ComputeSubspace(ctx, dims, sub(o)) }},
	}
}

// rowOptions is every algorithm, each with nothing maximized and with
// mixed Maximize.
func rowOptions() []Options {
	var out []Options
	for _, algo := range []Algorithm{GPSRS, GPMRS, Hybrid, MRBNL, MRAngle} {
		for _, maximize := range [][]bool{nil, {true, false, true}} {
			out = append(out, Options{Algorithm: algo, Maximize: maximize})
		}
	}
	return out
}

// TestQueriesLeaveRowsUntouched: every algorithm's jobs read the caller's
// rows in place and their windows keep them, so no query may write a row,
// or past one. After every query — each algorithm, with and without
// Maximize, through every query path —
// the rows are bit-identical to a copy taken before it.
func TestQueriesLeaveRowsUntouched(t *testing.T) {
	svc := mustService(t, ServiceConfig{Nodes: 2})
	for _, dist := range []string{"independent", "anticorrelated"} {
		rows := slabRows(mustGenerate(t, dist, 2000, 3, 5))
		rows[1][0] = math.Copysign(0, -1)
		for _, opts := range rowOptions() {
			// A fresh handle per option set, so "first use" prepares a plan
			// under these options and "reuse" runs from it.
			for _, q := range rowQueries(svc, svc.Dataset(rows), rows) {
				want := bitsOf(rows)
				if _, err := q.run(opts); err != nil {
					t.Fatalf("%s %s %+v: %v", dist, q.name, opts, err)
				}
				if diff := sameBitsAs(rows, want); diff != "" {
					t.Fatalf("%s %s %+v wrote the caller's rows: %s", dist, q.name, opts, diff)
				}
			}
		}
	}
}

// TestDatasetHandleConcurrentQueriesLeaveRowsUntouched: four goroutines
// query one handle at once, every query path of the handle under every
// option set, sharing the kept plan and so the rows its jobs read; the
// rows stay bit-identical throughout.
func TestDatasetHandleConcurrentQueriesLeaveRowsUntouched(t *testing.T) {
	svc := mustService(t, ServiceConfig{Nodes: 2})
	rows := slabRows(mustGenerate(t, "anticorrelated", 1500, 3, 9))
	want := bitsOf(rows)
	h := svc.Dataset(rows)
	queries := rowQueries(svc, h, rows)[4:] // the handle's
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, opts := range rowOptions() {
				q := queries[(i+c)%len(queries)]
				if _, err := q.run(opts); err != nil {
					t.Errorf("client %d %s %+v: %v", c, q.name, opts, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if diff := sameBitsAs(rows, want); diff != "" {
		t.Fatalf("concurrent queries wrote the caller's rows: %s", diff)
	}
}
