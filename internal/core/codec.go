package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// appendPartMap appends the serialization of a subset of wm (the partitions
// listed in parts, skipping absent ones) to dst, growing dst once:
//
//	uvarint entryCount | entries × (uvarint partition | column list)
//
// with each window's column list (tuple.AppendColumns) in its order. It is
// the shuffle-boundary representation of "a set of local skylines S_p for
// non-empty partitions p"; eachPart reads it back.
func appendPartMap(dst []byte, wm window.Map, parts []int) []byte {
	cnt, size := 0, binary.MaxVarintLen64
	for _, p := range parts {
		if w := wm[p]; w.Len() > 0 {
			cnt++
			size += binary.MaxVarintLen64 + tuple.ColumnsSize(w.Len(), w.Dim())
		}
	}
	dst = slices.Grow(dst, size)
	dst = binary.AppendUvarint(dst, uint64(cnt))
	for _, p := range parts {
		w := wm[p]
		if w.Len() == 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(p))
		dst = w.AppendColumns(dst)
	}
	return dst
}

// eachPart walks one appendPartMap payload of dim-dimensional tuples,
// handing fn every entry's partition and its column list still encoded, a
// subslice of b: the receiving task decides what each list becomes. A
// list's framing is checked, in O(1), not its values; an error from fn stops
// the walk and is returned.
func eachPart(b []byte, dim int, fn func(p int, list []byte) error) error {
	cnt, n := binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("core: truncated partition map header")
	}
	if cnt > uint64(len(b)) {
		return fmt.Errorf("core: implausible partition map count %d", cnt)
	}
	off := n
	for i := uint64(0); i < cnt; i++ {
		p, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return fmt.Errorf("core: truncated partition id at entry %d", i)
		}
		off += n
		_, _, m, err := tuple.SplitColumns(b[off:], dim)
		if err != nil {
			return fmt.Errorf("core: partition %d: %w", p, err)
		}
		if err := fn(int(p), b[off:off+m]); err != nil {
			return err
		}
		off += m
	}
	if off != len(b) {
		return fmt.Errorf("core: %d trailing bytes after partition map", len(b)-off)
	}
	return nil
}
