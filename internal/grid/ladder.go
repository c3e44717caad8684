package grid

import (
	"fmt"

	"mrskyline/internal/tuple"
)

// Ladder is a series of grids over one domain — the candidate PPDs of
// Section 3.3, in strictly ascending order — that locates a tuple on all of
// them, or on a leading run of them, in one pass. Ladders are immutable
// after construction and safe for concurrent use.
type Ladder struct {
	d     int
	lo    tuple.Tuple
	grids []*Grid
	// Per-level cell geometry, dimension-major so that Locate's inner loop
	// walks it sequentially: entry k·len(grids)+i is dimension k of level i,
	// copied from grids[i].
	rungs []rung
}

// rung is what cellCoord and the index sum need of one dimension of one grid.
type rung struct {
	width  float64
	stride int
	n      int
}

// NewLadder builds one grid per entry of ppds, all over the box [lo, hi);
// lo and hi both nil select the unit box, as New does. The PPDs must be
// strictly ascending: level i is coarser than level i+1, which the PPD
// selection job's early stop relies on.
func NewLadder(d int, ppds []int, lo, hi tuple.Tuple) (*Ladder, error) {
	if len(ppds) == 0 {
		return nil, fmt.Errorf("grid: ladder needs at least one PPD")
	}
	for i := 1; i < len(ppds); i++ {
		if ppds[i] <= ppds[i-1] {
			return nil, fmt.Errorf("grid: ladder PPDs not strictly ascending: %d after %d", ppds[i], ppds[i-1])
		}
	}
	if lo == nil && hi == nil {
		lo, hi = unitBox(d)
	}
	grids := make([]*Grid, len(ppds))
	for i, n := range ppds {
		g, err := NewWithBounds(d, n, lo, hi)
		if err != nil {
			return nil, fmt.Errorf("grid: ladder PPD %d: %w", n, err)
		}
		grids[i] = g
	}
	rungs := make([]rung, d*len(grids))
	for k := 0; k < d; k++ {
		for i, g := range grids {
			rungs[k*len(grids)+i] = rung{width: g.width[k], stride: g.strides[k], n: g.n}
		}
	}
	return &Ladder{d: d, lo: grids[0].lo, grids: grids, rungs: rungs}, nil
}

// Dim returns the dimensionality d.
func (l *Ladder) Dim() int { return l.d }

// Len returns the number of levels.
func (l *Ladder) Len() int { return len(l.grids) }

// Grid returns the grid of level i.
func (l *Ladder) Grid(i int) *Grid { return l.grids[i] }

// Level returns the level whose grid has the given PPD.
func (l *Ladder) Level(ppd int) (int, bool) {
	for i, g := range l.grids {
		if g.n == ppd {
			return i, true
		}
	}
	return 0, false
}

// Locate writes the partition index of t on the leading len(dst) levels
// into dst (len(dst) ≤ Len) and returns dst: dst[i] == Grid(i).Locate(t)
// for every t, computed with one subtraction per dimension instead of one
// per dimension and level. Levels past len(dst) cost nothing.
func (l *Ladder) Locate(t tuple.Tuple, dst []int) []int {
	levels := len(l.grids)
	if len(t) != l.d || len(dst) > levels {
		panic(fmt.Sprintf("grid: ladder of d=%d with %d levels given a %d-tuple and %d slots", l.d, levels, len(t), len(dst)))
	}
	clear(dst)
	for k, v := range t {
		off := v - l.lo[k]
		for i, r := range l.rungs[k*levels : k*levels+len(dst)] {
			dst[i] += cellCoord(off, r.width, r.n) * r.stride
		}
	}
	return dst
}
