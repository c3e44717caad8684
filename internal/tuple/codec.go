package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// The binary codec is deliberately simple and allocation-conscious: tuples
// cross the simulated MapReduce shuffle in serialized form, so the encoding
// here is on the hot path of every experiment.
//
// Wire formats (little endian):
//
//	Tuple:   uvarint dim | dim × float64 bits
//	Columns: uvarint count | dim × count × float64 bits, column after column
//
// A column list carries tuples of one dimensionality across the shuffle:
// their values, once, without the dimensionality (the reader knows it) and
// with the count in its shortest uvarint, so a list has one encoding.

// AppendEncode appends the wire encoding of t to dst and returns the
// extended slice.
func AppendEncode(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// Encode returns the wire encoding of t.
func Encode(t Tuple) []byte {
	return AppendEncode(make([]byte, 0, binary.MaxVarintLen64+8*len(t)), t)
}

// Decode parses one tuple from the front of b, returning the tuple and the
// number of bytes consumed.
func Decode(b []byte) (Tuple, int, error) {
	return DecodeInto(nil, b)
}

// DecodeInto is Decode into caller-owned storage: the tuple is written over
// dst[:0] and returned, allocated afresh only when dst is nil or cap(dst)
// is short, so a caller that does not retain tuples decodes a whole split
// through one scratch tuple without allocating. On error dst is untouched.
func DecodeInto(dst Tuple, b []byte) (Tuple, int, error) {
	dim, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("tuple: truncated dimension header")
	}
	if dim > uint64(len(b)-n)/8 {
		return nil, 0, fmt.Errorf("tuple: truncated payload: dim %d with %d bytes left", dim, len(b)-n)
	}
	if dst == nil || uint64(cap(dst)) < dim {
		dst = make(Tuple, dim)
	}
	dst = dst[:dim]
	off := n
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	return dst, off, nil
}

// AppendColumns appends the column list of cols, one column per dimension,
// all of one length, to dst, growing dst once.
func AppendColumns(dst []byte, cols [][]float64) []byte {
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	dst = binary.AppendUvarint(slices.Grow(dst, ColumnsSize(n, len(cols))), uint64(n))
	off := len(dst)
	dst = dst[:off+8*n*len(cols)]
	for _, col := range cols {
		for _, v := range col[:n] {
			binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(v))
			off += 8
		}
	}
	return dst
}

// EncodeList returns the column list of l, whose tuples must share one
// dimensionality.
func EncodeList(l List) []byte {
	cols := make([][]float64, l.Dim())
	for k := range cols {
		for _, t := range l {
			cols[k] = append(cols[k], t[k])
		}
	}
	return AppendColumns(nil, cols)
}

// ColumnsSize returns the length of the column list of n dim-dimensional
// tuples.
func ColumnsSize(n, dim int) int { return uvarintLen(n) + 8*n*dim }

// uvarintLen returns the length of x's uvarint encoding.
func uvarintLen(x int) int { return (bits.Len64(uint64(x)|1) + 6) / 7 }

// SplitColumns reads the framing of the column list of dim-dimensional
// tuples at the front of b, without looking at a value: its count, its
// body — the columns, 8·count bytes each, one after another — and the
// number of bytes the list takes.
func SplitColumns(b []byte, dim int) (count int, body []byte, n int, err error) {
	if dim <= 0 {
		return 0, nil, 0, fmt.Errorf("tuple: column list of dimensionality %d", dim)
	}
	c, m := binary.Uvarint(b)
	if m <= 0 {
		return 0, nil, 0, fmt.Errorf("tuple: truncated column list header")
	}
	if c > uint64(len(b)-m)/uint64(8*dim) {
		return 0, nil, 0, fmt.Errorf("tuple: column list of %d × %d values with %d bytes left", c, dim, len(b)-m)
	}
	if m != uvarintLen(int(c)) {
		return 0, nil, 0, fmt.Errorf("tuple: column list count %d in a %d-byte uvarint", c, m)
	}
	n = m + 8*int(c)*dim
	return int(c), b[m:n], n, nil
}

// DecodeColumn sets dst to column k of a column list's body (SplitColumns)
// that holds len(dst) values per column.
func DecodeColumn(dst []float64, body []byte, k int) {
	col := body[8*k*len(dst) : 8*(k+1)*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(col[8*i:]))
	}
}

// DecodeColumns decodes lists, each exactly one column list of
// dim-dimensional tuples, into one block of values: it returns all their
// tuples in order, each a window of the block that cannot grow into its
// neighbour, so the whole answer costs two allocations.
func DecodeColumns(dim int, lists ...[]byte) (List, error) {
	total := 0
	for i, b := range lists {
		c, _, n, err := SplitColumns(b, dim)
		if err != nil {
			return nil, fmt.Errorf("tuple: column list %d: %w", i, err)
		}
		if n != len(b) {
			return nil, fmt.Errorf("tuple: %d trailing bytes after column list %d", len(b)-n, i)
		}
		total += c
	}
	flat, out := make([]float64, total*dim), make(List, total)
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	at := out
	for _, b := range lists {
		c, body, _, _ := SplitColumns(b, dim)
		for k := 0; k < dim; k++ {
			col := body[8*k*c:]
			for i, t := range at[:c] {
				t[k] = math.Float64frombits(binary.LittleEndian.Uint64(col[8*i:]))
			}
		}
		at = at[c:]
	}
	return out, nil
}
