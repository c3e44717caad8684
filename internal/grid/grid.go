// Package grid implements the grid partitioning scheme of Section 3 of the
// paper: an n×…×n division of the d-dimensional data space into n^d
// partitions, partition dominance (Definition 2), dominating and
// anti-dominating regions (Definitions 3–4), bitstring-based partition
// pruning (Equation 2), the PPD selection heuristic (Section 3.3), and the
// independent partition groups of Section 5 (Definitions 5–6, Algorithm 7)
// together with the group merging and duplicate-elimination policies of
// Section 5.4.
//
// # Partition indexing
//
// Cells have integer coordinates c = (c_0, …, c_{d−1}) with 0 ≤ c_k < n.
// The partition index is i = c_0·n^{d−1} + c_1·n^{d−2} + … + c_{d−1}
// (dimension 0 varies slowest). This layout reproduces the examples of the
// paper exactly: in the 3×3 grid of Figure 2, the centre cell (1,1) is p4
// with DR {p8} and ADR {p0, p1, p3}.
//
// # Dominance on the grid
//
// Cells are half-open boxes [lo, hi) and tuples are therefore strictly below
// their cell's maximum corner. Consequently:
//
//   - pi ≺ pj (Definition 2) ⟺ ∀k: cj_k ≥ ci_k + 1. Weak corner dominance
//     (pi.max ≤ pj.min on every dimension) already guarantees that every
//     tuple of pi strictly dominates every tuple of pj (Lemma 1).
//   - pj ∈ pi.ADR (Definition 4) ⟺ pj ≠ pi ∧ ∀k: cj_k ≤ ci_k. Only such
//     partitions can contain a tuple dominating a tuple of pi.
package grid

import (
	"fmt"
	"math"

	"mrskyline/internal/tuple"
)

// MaxPartitions bounds n^d. The bitstring and the pruning sweep materialize
// one bit (and transiently one bool) per partition, so the grid refuses
// configurations beyond this size instead of exhausting memory.
const MaxPartitions = 1 << 26

// Grid is an n×…×n partitioning of a d-dimensional box. Grids are immutable
// after construction and safe for concurrent use.
type Grid struct {
	d, n    int
	total   int
	strides []int       // strides[k] = n^{d−1−k}
	lo, hi  tuple.Tuple // data domain; cells are half-open within it
	width   []float64   // per-dimension cell width
}

// New returns a grid over the unit box [0,1)^d with n partitions per
// dimension (PPD).
func New(d, n int) (*Grid, error) {
	lo, hi := unitBox(d)
	return NewWithBounds(d, n, lo, hi)
}

// unitBox returns the corners of [0,1)^d (empty for d < 1, which the
// constructors reject).
func unitBox(d int) (lo, hi tuple.Tuple) {
	if d < 1 {
		return nil, nil
	}
	lo, hi = make(tuple.Tuple, d), make(tuple.Tuple, d)
	for k := range hi {
		hi[k] = 1
	}
	return lo, hi
}

// DataBounds returns grid bounds [lo, hi) for a non-empty data set: per
// dimension the smallest and the largest value (values equal to hi clamp
// into the top cell, which is always safe), widened by WidenBounds.
func DataBounds(data tuple.List) (lo, hi tuple.Tuple) {
	lo, hi = data[0].Clone(), data[0].Clone()
	for _, t := range data[1:] {
		lo.MinWith(t)
		hi.MaxWith(t)
	}
	WidenBounds(lo, hi)
	return lo, hi
}

// WidenBounds turns the per-dimension minima lo and maxima hi of a data set
// into grid bounds, in place. A constant dimension would be an empty
// extent, which NewWithBounds rejects, so it is widened to [lo, lo+1) — or,
// where lo+1 rounds back to lo (|lo| ≥ 2^53), by one ulp toward the finite
// side: hi moves up, except at MaxFloat64, where lo moves down.
func WidenBounds(lo, hi tuple.Tuple) {
	for k := range lo {
		if hi[k] > lo[k] {
			continue
		}
		switch {
		case lo[k]+1 > lo[k]:
			hi[k] = lo[k] + 1
		case lo[k] < math.MaxFloat64:
			hi[k] = math.Nextafter(lo[k], math.Inf(1))
		default:
			lo[k] = math.Nextafter(lo[k], math.Inf(-1))
		}
	}
}

// NewWithBounds returns a grid over the box [lo, hi) with n partitions per
// dimension. Tuples outside the box are clamped into the boundary cells by
// Locate, so a slightly-off domain estimate degrades pruning quality but
// never correctness.
func NewWithBounds(d, n int, lo, hi tuple.Tuple) (*Grid, error) {
	if d < 1 {
		return nil, fmt.Errorf("grid: dimensionality must be ≥ 1, got %d", d)
	}
	if n < 1 {
		return nil, fmt.Errorf("grid: PPD must be ≥ 1, got %d", n)
	}
	if len(lo) != d || len(hi) != d {
		return nil, fmt.Errorf("grid: bounds dimensionality %d/%d does not match d=%d", len(lo), len(hi), d)
	}
	total := 1
	for k := 0; k < d; k++ {
		if hi[k] <= lo[k] {
			return nil, fmt.Errorf("grid: empty domain on dimension %d: [%g, %g)", k, lo[k], hi[k])
		}
		if total > MaxPartitions/n {
			return nil, fmt.Errorf("grid: n^d = %d^%d exceeds MaxPartitions (%d)", n, d, MaxPartitions)
		}
		total *= n
	}
	g := &Grid{
		d:       d,
		n:       n,
		total:   total,
		strides: make([]int, d),
		lo:      lo.Clone(),
		hi:      hi.Clone(),
		width:   make([]float64, d),
	}
	s := 1
	for k := d - 1; k >= 0; k-- {
		g.strides[k] = s
		s *= n
	}
	for k := 0; k < d; k++ {
		g.width[k] = (hi[k] - lo[k]) / float64(n)
	}
	return g, nil
}

// Dim returns the dimensionality d.
func (g *Grid) Dim() int { return g.d }

// PPD returns the partitions-per-dimension n.
func (g *Grid) PPD() int { return g.n }

// NumPartitions returns n^d, the length of the grid's bitstrings.
func (g *Grid) NumPartitions() int { return g.total }

// Lo returns the inclusive lower corner of the data domain.
func (g *Grid) Lo() tuple.Tuple { return g.lo.Clone() }

// Hi returns the exclusive upper corner of the data domain.
func (g *Grid) Hi() tuple.Tuple { return g.hi.Clone() }

// cellCoord maps an offset from the domain's lower bound to a cell
// coordinate on one dimension: the quotient by the cell width, truncated, with
// out-of-domain values clamped into the boundary cells. It is the only place
// a value becomes a coordinate, so CellOf, Locate and Ladder.Locate agree on
// every input. The division is deliberate: multiplying by a precomputed
// 1/width rounds differently for values on or within an ulp of a cell edge,
// which would move tuples between cells and change the bitstring.
//
// The coordinate is monotone in the value — subtraction, division by a
// positive width and truncation all are — which is what lets a lower cell
// coordinate stand for "strictly smaller on this dimension" (partition
// dominance, ADRDims). That includes quotients beyond the integer range,
// whose conversion is implementation-dependent: it either saturates or, on
// amd64, yields the most negative integer, which for a positive offset must
// clamp to the last cell, not the first.
func cellCoord(off, width float64, n int) int {
	c := int(off / width)
	if c < 0 {
		c = 0
		if off > 0 {
			c = n - 1
		}
	} else if c >= n {
		c = n - 1
	}
	return c
}

// CellOf writes the cell coordinates of t into dst (which must have length
// d) and returns dst. Out-of-domain values clamp to the boundary cells.
func (g *Grid) CellOf(t tuple.Tuple, dst []int) []int {
	if len(t) != g.d {
		panic(fmt.Sprintf("grid: tuple dimensionality %d does not match grid d=%d", len(t), g.d))
	}
	for k := 0; k < g.d; k++ {
		dst[k] = cellCoord(t[k]-g.lo[k], g.width[k], g.n)
	}
	return dst
}

// Locate returns the partition index of t ("Decide the partition p_j that t
// belongs to", Algorithms 1, 3 and 8).
func (g *Grid) Locate(t tuple.Tuple) int {
	if len(t) != g.d {
		panic(fmt.Sprintf("grid: tuple dimensionality %d does not match grid d=%d", len(t), g.d))
	}
	i := 0
	for k := 0; k < g.d; k++ {
		i += cellCoord(t[k]-g.lo[k], g.width[k], g.n) * g.strides[k]
	}
	return i
}

// Index converts cell coordinates to a partition index.
func (g *Grid) Index(c []int) int {
	if len(c) != g.d {
		panic(fmt.Sprintf("grid: coordinate dimensionality %d does not match d=%d", len(c), g.d))
	}
	i := 0
	for k, v := range c {
		if v < 0 || v >= g.n {
			panic(fmt.Sprintf("grid: coordinate %d out of range [0,%d) on dimension %d", v, g.n, k))
		}
		i += v * g.strides[k]
	}
	return i
}

// Coords writes the cell coordinates of partition i into dst (length d)
// and returns dst.
func (g *Grid) Coords(i int, dst []int) []int {
	if i < 0 || i >= g.total {
		panic(fmt.Sprintf("grid: partition index %d out of range [0,%d)", i, g.total))
	}
	for k := 0; k < g.d; k++ {
		dst[k] = i / g.strides[k]
		i %= g.strides[k]
	}
	return dst
}

// MinCorner returns p_i.min, the best (lowest) corner of partition i.
func (g *Grid) MinCorner(i int) tuple.Tuple {
	c := g.Coords(i, make([]int, g.d))
	t := make(tuple.Tuple, g.d)
	for k := 0; k < g.d; k++ {
		t[k] = g.lo[k] + float64(c[k])*g.width[k]
	}
	return t
}

// MaxCorner returns p_i.max, the worst (highest) corner of partition i.
func (g *Grid) MaxCorner(i int) tuple.Tuple {
	c := g.Coords(i, make([]int, g.d))
	t := make(tuple.Tuple, g.d)
	for k := 0; k < g.d; k++ {
		t[k] = g.lo[k] + float64(c[k]+1)*g.width[k]
	}
	return t
}

// PartitionDominates reports whether p_i ≺ p_j (Definition 2): every tuple
// of p_i dominates every tuple of p_j (Lemma 1).
func (g *Grid) PartitionDominates(i, j int) bool {
	ci := g.Coords(i, make([]int, g.d))
	cj := g.Coords(j, make([]int, g.d))
	for k := 0; k < g.d; k++ {
		if cj[k] < ci[k]+1 {
			return false
		}
	}
	return true
}

// ADRDims reports whether p_j ∈ p_i.ADR (Definition 4: p_j may contain
// tuples that dominate tuples of p_i) and says what the grid has left
// undecided between the two partitions: when p_j ∈ p_i.ADR it appends to
// dst, in ascending order, the dimensions on which the two cells share a
// coordinate, and returns the extended slice and true; otherwise it returns
// dst unchanged and false. On every other dimension p_j's coordinate is the
// lower one, and since a value's cell coordinate is monotone in the value
// (cellCoord), every tuple of p_j is strictly below every tuple of p_i
// there — so a tuple of p_j dominates a tuple of p_i exactly when it is ≤
// on the returned dimensions. It compares the two indices digit by digit (a
// partition index is its coordinates in radix n, most significant first),
// so no coordinate vector is materialized beyond dst, and a dst with room
// for d entries makes it allocation-free.
func (g *Grid) ADRDims(j, i int, dst []int) ([]int, bool) {
	if i < 0 || i >= g.total || j < 0 || j >= g.total {
		panic(fmt.Sprintf("grid: partition index %d or %d out of range [0,%d)", j, i, g.total))
	}
	if j >= i {
		return dst, false // an index is monotone in its digits: nothing above p_i is ≤ it everywhere
	}
	n := len(dst)
	for k, s := range g.strides {
		cj, ci := j/s, i/s
		if cj > ci {
			return dst[:n], false
		}
		if cj == ci {
			dst = append(dst, k)
		}
		i -= ci * s
		j -= cj * s
	}
	return dst, true
}

// ADR enumerates p_i.ADR in ascending index order: all partitions whose
// cell coordinates are ≤ p_i's on every dimension, excluding p_i itself.
func (g *Grid) ADR(i int) []int {
	ci := g.Coords(i, make([]int, g.d))
	out := make([]int, 0, g.ADRSize(i))
	c := make([]int, g.d)
	g.enumerateBox(c, 0, 0, ci, func(idx int) {
		if idx != i {
			out = append(out, idx)
		}
	})
	return out
}

// DR enumerates p_i.DR (Definition 3) in ascending index order: all
// partitions strictly greater than p_i on every dimension.
func (g *Grid) DR(i int) []int {
	ci := g.Coords(i, make([]int, g.d))
	size := 1
	for k := 0; k < g.d; k++ {
		size *= g.n - 1 - ci[k]
		if size <= 0 {
			return nil
		}
	}
	out := make([]int, 0, size)
	lo := make([]int, g.d)
	hi := make([]int, g.d)
	for k := 0; k < g.d; k++ {
		lo[k] = ci[k] + 1
		hi[k] = g.n - 1
	}
	c := append([]int(nil), lo...)
	g.enumerateRange(c, 0, lo, hi, func(idx int) { out = append(out, idx) })
	return out
}

// ADRSize returns |p_i.ADR| without enumerating it: ∏(c_k + 1) − 1.
// Section 5.4 uses it as the estimated computation cost of a group.
func (g *Grid) ADRSize(i int) int {
	ci := g.Coords(i, make([]int, g.d))
	size := 1
	for k := 0; k < g.d; k++ {
		size *= ci[k] + 1
	}
	return size - 1
}

// enumerateBox visits all cells with coordinates in [0, hi[k]] per
// dimension, invoking fn with each partition index.
func (g *Grid) enumerateBox(c []int, k, base int, hi []int, fn func(int)) {
	if k == g.d {
		fn(base)
		return
	}
	for v := 0; v <= hi[k]; v++ {
		c[k] = v
		g.enumerateBox(c, k+1, base+v*g.strides[k], hi, fn)
	}
}

// enumerateRange visits all cells with coordinates in [lo[k], hi[k]] per
// dimension.
func (g *Grid) enumerateRange(c []int, k int, lo, hi []int, fn func(int)) {
	if k == g.d {
		fn(g.Index(c))
		return
	}
	for v := lo[k]; v <= hi[k]; v++ {
		c[k] = v
		g.enumerateRange(c, k+1, lo, hi, fn)
	}
}
