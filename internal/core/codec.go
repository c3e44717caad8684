package core

import (
	"encoding/binary"
	"fmt"

	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// partMap is the shuffle-boundary representation of "a set of local
// skylines S_p for non-empty partitions p": decodePartMap yields plain
// tuple lists, which the receiving task folds into its columnar windows.
type partMap map[int]tuple.List

// appendPartMap appends the serialization of a subset of wm (the partitions
// listed in parts, skipping absent ones) to dst:
//
//	uvarint entryCount | entries × (uvarint partition | tuple list)
func appendPartMap(dst []byte, wm window.Map, parts []int) []byte {
	cnt := 0
	for _, p := range parts {
		if wm[p].Len() > 0 {
			cnt++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(cnt))
	for _, p := range parts {
		w := wm[p]
		if w.Len() == 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(p))
		dst = tuple.AppendEncodeList(dst, w.Rows())
	}
	return dst
}

// decodePartMap parses one appendPartMap payload.
func decodePartMap(b []byte) (partMap, error) {
	cnt, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("core: truncated partition map header")
	}
	if cnt > uint64(len(b)) {
		return nil, fmt.Errorf("core: implausible partition map count %d", cnt)
	}
	off := n
	pm := make(partMap, cnt)
	for i := uint64(0); i < cnt; i++ {
		p, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return nil, fmt.Errorf("core: truncated partition id at entry %d", i)
		}
		off += n
		l, m, err := tuple.DecodeList(b[off:])
		if err != nil {
			return nil, fmt.Errorf("core: partition %d: %w", p, err)
		}
		off += m
		pm[int(p)] = l
	}
	if off != len(b) {
		return nil, fmt.Errorf("core: %d trailing bytes after partition map", len(b)-off)
	}
	return pm, nil
}
