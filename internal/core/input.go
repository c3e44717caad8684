package core

import (
	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/tuple"
)

// EncodeRows is the one pass from a caller's non-empty rows to the input of
// job 1. Per row, in index order, it
//   - checks the row with tuple.CheckAt against the first row's width,
//     unless checked says the caller already found every row well-formed,
//     so a malformed row fails with Validate's text, index and values;
//   - negates the dimensions whose sign is −1 (signs is nil, or holds one
//     ±1 per dimension);
//   - folds the oriented row into the per-dimension minima and maxima with
//     tuple's MinWith/MaxWith (so of a −0 and a +0 the first seen stays);
//   - encodes the oriented row as the row's record of one exactly sized
//     mapreduce.TupleArena.
//
// lo and hi are then grid.DataBounds of the oriented rows, bit for bit: the
// same fold, widened by grid.WidenBounds. The arena is the rows' only copy
// a run keeps; no oriented row list, Record slice or second check is made.
func EncodeRows[Row ~[]float64](rows []Row, signs []float64, checked bool) (in mapreduce.TupleArena, lo, hi tuple.Tuple, err error) {
	d := len(rows[0])
	in = mapreduce.NewTupleArena(len(rows), d)
	lo, hi = make(tuple.Tuple, d), make(tuple.Tuple, d)
	var oriented tuple.Tuple
	if signs != nil {
		oriented = make(tuple.Tuple, d)
	}
	for i, row := range rows {
		t := tuple.Tuple(row)
		if !checked {
			if err := tuple.CheckAt(i, t, d); err != nil {
				return mapreduce.TupleArena{}, nil, nil, err
			}
		}
		if signs != nil {
			for k, s := range signs {
				oriented[k] = t[k] * s
			}
			t = oriented
		}
		if i == 0 {
			copy(lo, t)
			copy(hi, t)
		} else {
			lo.MinWith(t)
			hi.MaxWith(t)
		}
		in.Put(i, t)
	}
	grid.WidenBounds(lo, hi)
	return in, lo, hi, nil
}
