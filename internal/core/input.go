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
//     ±1 per dimension) into the row's view of one oriented copy;
//   - folds the oriented row into the per-dimension minima and maxima with
//     tuple's MinWith/MaxWith (so of a −0 and a +0 the first seen stays).
//
// The input is the rows themselves when signs is nil: nothing is copied,
// and the jobs read, and their windows keep, the caller's rows. Otherwise
// it is the oriented copy, one []float64 with capacity-clipped row views
// into it. lo and hi are then grid.DataBounds of the oriented rows, bit for
// bit: the same fold, widened by grid.WidenBounds.
func EncodeRows(rows [][]float64, signs []float64, checked bool) (in mapreduce.TupleRows, lo, hi tuple.Tuple, err error) {
	d := len(rows[0])
	in = rows
	var flat []float64
	if signs != nil {
		in = make(mapreduce.TupleRows, len(rows))
		flat = make([]float64, len(rows)*d)
	}
	lo, hi = make(tuple.Tuple, d), make(tuple.Tuple, d)
	for i, row := range rows {
		t := tuple.Tuple(row)
		if !checked {
			if err := tuple.CheckAt(i, t, d); err != nil {
				return nil, nil, nil, err
			}
		}
		if signs != nil {
			oriented := flat[i*d : (i+1)*d : (i+1)*d]
			for k, s := range signs {
				oriented[k] = t[k] * s
			}
			in[i], t = oriented, oriented
		}
		if i == 0 {
			copy(lo, t)
			copy(hi, t)
		} else {
			lo.MinWith(t)
			hi.MaxWith(t)
		}
	}
	grid.WidenBounds(lo, hi)
	return in, lo, hi, nil
}
