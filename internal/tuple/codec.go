package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The binary codec is deliberately simple and allocation-conscious: tuples
// cross the simulated MapReduce shuffle in serialized form, so the encoding
// here is on the hot path of every experiment.
//
// Wire formats (little endian):
//
//	Tuple: uvarint dim | dim × float64 bits
//	List:  uvarint count | count × Tuple

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

// AppendEncodeList appends the wire encoding of the list to dst.
func AppendEncodeList(dst []byte, l List) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(l)))
	for _, t := range l {
		dst = AppendEncode(dst, t)
	}
	return dst
}

// EncodeList returns the wire encoding of the list.
func EncodeList(l List) []byte {
	return AppendEncodeList(make([]byte, 0, ListSize(len(l), l.Dim())), l)
}

// ListSize returns the encoded length of a list of n dim-dimensional tuples.
func ListSize(n, dim int) int {
	return uvarintLen(n) + n*(uvarintLen(dim)+8*dim)
}

// uvarintLen returns the length of x's uvarint encoding.
func uvarintLen(x int) int { return (bits.Len64(uint64(x)|1) + 6) / 7 }

// DecodeList parses one list from the front of b, returning the list and
// the number of bytes consumed. The tuples of a list share one backing
// array sized by the first tuple's dimensionality — each a window of it that
// cannot grow into its neighbour — so a list costs two allocations, not one
// per tuple; a tuple of a higher dimensionality than the first is allocated
// on its own.
func DecodeList(b []byte) (List, int, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("tuple: truncated list header")
	}
	// A tuple occupies at least 1 byte, so count cannot exceed what remains.
	if count > uint64(len(b)-n) {
		return nil, 0, fmt.Errorf("tuple: implausible list count %d with %d bytes left", count, len(b)-n)
	}
	// Nor can count tuples of the first one's dimensionality hold more
	// values than the remaining bytes do; a list that changes
	// dimensionality falls outside the bound and decodes tuple by tuple.
	var backing Tuple
	dim, m := binary.Uvarint(b[n:])
	if m > 0 && dim > 0 && dim <= uint64(len(b)-n)/8 && count <= uint64(len(b)-n)/(8*dim) {
		backing = make(Tuple, count*dim)
	}
	d := len(backing) / max(int(count), 1)
	l := make(List, 0, count)
	off := n
	for i := uint64(0); i < count; i++ {
		t, m, err := DecodeInto(backing[:d:d], b[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("tuple: list element %d: %w", i, err)
		}
		l = append(l, t)
		backing = backing[d:]
		off += m
	}
	return l, off, nil
}

// ScanList parses one list from the front of b as DecodeList does, but
// allocates no tuple: fn receives every tuple in turn, decoded into dst (a
// short dst is replaced once), and must not keep it past its return. A nil
// fn reads only the framing: it decodes no value. An error from fn stops the
// scan and is returned as it is. ScanList returns the list's count and the
// number of bytes consumed.
func ScanList(b []byte, dst Tuple, fn func(Tuple) error) (count, n int, err error) {
	c, off := binary.Uvarint(b)
	if off <= 0 {
		return 0, 0, fmt.Errorf("tuple: truncated list header")
	}
	if c > uint64(len(b)-off) {
		return 0, 0, fmt.Errorf("tuple: implausible list count %d with %d bytes left", c, len(b)-off)
	}
	for i := uint64(0); i < c; i++ {
		if fn == nil {
			dim, m := binary.Uvarint(b[off:])
			if m <= 0 || dim > uint64(len(b)-off-m)/8 {
				return 0, 0, fmt.Errorf("tuple: list element %d: truncated", i)
			}
			off += m + 8*int(dim)
			continue
		}
		var m int
		if dst, m, err = DecodeInto(dst, b[off:]); err != nil {
			return 0, 0, fmt.Errorf("tuple: list element %d: %w", i, err)
		}
		if err := fn(dst); err != nil {
			return 0, 0, err
		}
		off += m
	}
	return int(c), off, nil
}
