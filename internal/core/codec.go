package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// Shuffle keys are fixed-width big-endian integers so that the engine's
// lexicographic key ordering coincides with numeric ordering.

// encodeKey renders a non-negative integer id as an 8-byte big-endian key.
func encodeKey(id int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return b[:]
}

// decodeKey parses a key produced by encodeKey.
func decodeKey(k []byte) (int, error) {
	if len(k) != 8 {
		return 0, fmt.Errorf("core: malformed key of %d bytes", len(k))
	}
	return int(binary.BigEndian.Uint64(k)), nil
}

// partMap is the shuffle-boundary representation of "a set of local
// skylines S_p for non-empty partitions p": decodePartMap yields plain
// tuple lists, which the receiving task folds into its columnar windows.
type partMap map[int]tuple.List

// winMap is the in-task representation of the same S, held as columnar
// dominance windows (the hot-path layout of Algorithms 3 and 8).
type winMap map[int]*window.Window

// window returns the partition's window, creating an empty one on first
// use.
func (wm winMap) window(p, dim int) *window.Window {
	w := wm[p]
	if w == nil {
		w = window.New(dim)
		wm[p] = w
	}
	return w
}

// sortedPartitions returns the map's keys in ascending order; all emission
// and comparison loops iterate in this order so task output is
// byte-deterministic.
func (wm winMap) sortedPartitions() []int {
	out := make([]int, 0, len(wm))
	for p := range wm {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// appendPartMap appends the serialization of a subset of wm (the partitions
// listed in parts, skipping absent ones) to dst:
//
//	uvarint entryCount | entries × (uvarint partition | tuple list)
func appendPartMap(dst []byte, wm winMap, parts []int) []byte {
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
