package maintain

import (
	"math"
	"reflect"
	"testing"

	"mrskyline/internal/skyline"
	"mrskyline/internal/tuple"
)

// checkBatches seeds a maintained skyline on the unit box and applies the
// batches one by one. After every batch the snapshot must equal a fresh
// build over Rows() on the same grid byte for byte, order included, and the
// naive skyline of the resident multiset as a multiset. Deletes follow the
// maintainer's first-equal semantics on a shadow copy of the residents.
func checkBatches(t *testing.T, d, ppd int, seed tuple.List, batches [][]Delta) {
	t.Helper()
	cfg := Config{Dim: d, PPD: ppd, Lo: make([]float64, d), Hi: ones(d)}
	m, err := New(seed.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	resident := seed.Clone()
	for b, batch := range batches {
		for _, dl := range batch {
			if dl.Op == OpInsert {
				resident = append(resident, dl.Row.Clone())
			} else {
				resident = deleteFirstEqual(resident, dl.Row)
			}
		}
		if _, err := m.Apply(cloneBatch(batch)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		fresh, err := New(m.Rows(), cfg)
		if err != nil {
			t.Fatalf("batch %d: rebuild: %v", b, err)
		}
		if got, want := m.Snapshot().Skyline, fresh.Snapshot().Skyline; !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: maintained skyline differs from a rebuild:\n got  %v\n want %v", b, got, want)
		}
		if got, want := sortedRows(m.Snapshot().Skyline), sortedRows(skyline.Naive(resident)); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: skyline differs from the naive oracle:\n got  %v\n want %v", b, got, want)
		}
	}
}

func ins(row ...float64) Delta { return Delta{Op: OpInsert, Row: row} }
func del(row ...float64) Delta { return Delta{Op: OpDelete, Row: row} }

// TestRefreshCases pins the batches the incremental refresh and the delete
// repair must get right, on a 2-d grid of 4×4 cells of width 0.25. Each is
// also reachable by FuzzMaintainMatchesRebuild.
func TestRefreshCases(t *testing.T) {
	cases := []struct {
		name    string
		seed    tuple.List
		batches [][]Delta
	}{
		{
			// {0.2, 0.2} enters cell (0,0)'s window, hides the rows above
			// and to its right, and is deleted in the same batch.
			name: "enter and delete in one batch",
			seed: tuple.List{{0.6, 0.6}, {0.3, 0.8}, {0.8, 0.3}},
			batches: [][]Delta{
				{ins(0.2, 0.2), ins(0.7, 0.1), del(0.2, 0.2)},
				{ins(0.2, 0.2)},
				{del(0.2, 0.2), ins(0.1, 0.9)},
			},
		},
		{
			// {0.1, 0.6} in cell (0,2) holds back {0.2, 0.8} in cell
			// (0,3); deleting it frees that row while (0,2) stays occupied.
			name: "deleted window row un-excludes a later cell",
			seed: tuple.List{{0.1, 0.6}, {0.24, 0.51}, {0.2, 0.8}, {0.22, 0.9}, {0.9, 0.05}},
			batches: [][]Delta{
				{del(0.1, 0.6)},
				{ins(0.05, 0.7), del(0.24, 0.51)},
				{del(0.05, 0.7), ins(0.21, 0.85)},
			},
		},
		{
			// Cell (1,1) loses its only row and gains another in one batch;
			// its old row pruned nothing, its new one hides a row of (2,1).
			name: "cell emptied and refilled in one batch",
			seed: tuple.List{{0.3, 0.3}, {0.6, 0.35}, {0.1, 0.9}, {0.9, 0.1}},
			batches: [][]Delta{
				{del(0.3, 0.3), ins(0.26, 0.3)},
				{del(0.26, 0.3), ins(0.4, 0.45), ins(0.3, 0.26)},
				{del(0.3, 0.26), del(0.4, 0.45)},
			},
		},
		{
			// {0.3, 0.3} is resident three times, with a row of the same
			// cell between its copies: each delete takes the earliest copy
			// and the window keeps arrival order.
			name: "duplicates of a deleted window row",
			seed: tuple.List{{0.3, 0.3}, {0.26, 0.45}, {0.3, 0.3}, {0.6, 0.6}, {0.3, 0.3}},
			batches: [][]Delta{
				{del(0.3, 0.3)},
				{ins(0.3, 0.3), del(0.3, 0.3), ins(0.45, 0.26)},
				{del(0.3, 0.3), del(0.3, 0.3)},
				{del(0.3, 0.3)},
			},
		},
		{
			// Deletes of rows that are not resident: in an occupied cell, in
			// an empty one, and a second delete of a row already gone.
			name: "absent deletes",
			seed: tuple.List{{0.3, 0.3}, {0.6, 0.1}},
			batches: [][]Delta{
				{del(0.31, 0.3), del(0.9, 0.9), del(0.6, 0.1), del(0.6, 0.1)},
				{del(0.3, 0.3), del(0.3, 0.3), ins(0.5, 0.5)},
			},
		},
		{
			// Tuple.Equal holds -0 equal to +0, so the delete must find the
			// row whichever sign either side carries.
			name: "signed zero",
			seed: tuple.List{{0, 0.5}, {0.5, math.Copysign(0, -1)}, {0.3, 0.3}},
			batches: [][]Delta{
				{del(math.Copysign(0, -1), 0.5), del(0.5, 0)},
				{ins(math.Copysign(0, -1), 0.6), del(0, 0.6)},
			},
		},
		{
			// {0.27, 0.27} evicts {0.3, 0.3} from cell (1,1)'s window and
			// is deleted in the same batch; the repair brings {0.3, 0.3}
			// back ahead of the row inserted after it.
			name: "evicted row repaired back",
			seed: tuple.List{{0.3, 0.3}, {0.4, 0.7}, {0.7, 0.4}, {0.45, 0.45}},
			batches: [][]Delta{
				{ins(0.27, 0.27), ins(0.28, 0.4), del(0.27, 0.27)},
				{ins(0.26, 0.26), del(0.3, 0.3)},
				{del(0.26, 0.26)},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkBatches(t, 2, 4, c.seed, c.batches) })
	}
}

// byteStream turns fuzz bytes into maintainer inputs; reading past the end
// yields zeros.
type byteStream []byte

func (s *byteStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	v := (*s)[0]
	*s = (*s)[1:]
	return int(v)
}

// row reads d values on a 16-step lattice, so duplicates, ties on a
// dimension and rows on cell borders are common.
func (s *byteStream) row(d int) tuple.Tuple {
	r := make(tuple.Tuple, d)
	for k := range r {
		r[k] = float64(s.next()%16) / 16
	}
	return r
}

// FuzzMaintainMatchesRebuild holds the incremental refresh and the delete
// repair to a rebuild after every batch: the bytes choose a 2–4-d grid with
// PPD 2–6, a seed of up to 23 rows and up to 16 batches of inserts, deletes
// of resident rows, deletes of arbitrary (often absent) rows and inserts of
// duplicates. Run it with
//
//	go test -run XXX -fuzz FuzzMaintainMatchesRebuild -fuzztime 20s ./internal/maintain/
func FuzzMaintainMatchesRebuild(f *testing.F) {
	f.Add([]byte{0, 2, 6, 1, 1, 5, 5, 9, 2, 2, 9, 3, 0, 4, 4, 2, 0, 3, 1, 1, 4, 2})
	f.Add([]byte{1, 4, 12, 3, 3, 3, 3, 3, 3, 8, 1, 14, 2, 2, 2, 6, 5, 0, 1, 1, 1, 2, 0, 3, 2, 2, 2, 4, 1, 7, 0})
	f.Add([]byte{2, 0, 20, 5, 6, 7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 15, 14, 13, 12, 7, 2, 1, 2, 5, 0, 0, 0, 0, 3, 2, 4, 4, 4, 4, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := byteStream(data)
		d, ppd := 2+s.next()%3, 2+s.next()%5
		seed := make(tuple.List, s.next()%24)
		for i := range seed {
			seed[i] = s.row(d)
		}
		resident := seed.Clone()
		var batches [][]Delta
		for len(s) > 0 && len(batches) < 16 {
			batch := make([]Delta, 1+s.next()%8)
			for i := range batch {
				switch op := s.next() % 5; {
				case op == 2 && len(resident) > 0:
					batch[i] = Delta{Op: OpDelete, Row: resident[s.next()%len(resident)].Clone()}
					resident = deleteFirstEqual(resident, batch[i].Row)
				case op == 3:
					batch[i] = Delta{Op: OpDelete, Row: s.row(d)}
					resident = deleteFirstEqual(resident, batch[i].Row)
				case op == 4 && len(resident) > 0:
					batch[i] = Delta{Op: OpInsert, Row: resident[s.next()%len(resident)].Clone()}
					resident = append(resident, batch[i].Row)
				default:
					batch[i] = Delta{Op: OpInsert, Row: s.row(d)}
					resident = append(resident, batch[i].Row)
				}
			}
			batches = append(batches, batch)
		}
		checkBatches(t, d, ppd, seed, batches)
	})
}
