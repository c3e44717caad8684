package frame

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
)

// arenaRec locates one record inside an Arena: the key starts at off, the
// value immediately follows it.
type arenaRec struct {
	off  int
	klen int32
	vlen int32
}

// Arena accumulates records as the shuffle and a spill writer's buffer both
// want them: key and value bytes appended to one flat byte slice, each
// record described by a fixed-size locator. Grouping is sort-based — an
// index over the records ordered by raw key bytes, as Hadoop's sort-merge
// shuffle orders its spills — so there is no per-record string conversion,
// map[string][][]byte or sort.Strings pass. Key order is lexicographic
// byte order; per-key value order is arrival order. The zero value is an
// empty, ready-to-use arena.
type Arena struct {
	data []byte
	recs []arenaRec
}

// Add copies one key/value pair into the arena, growing the payload at most
// once. Because the bytes are copied here, emitters are free to reuse their
// scratch buffers — the basis of the Emitter contract.
func (a *Arena) Add(key, value []byte) {
	off := len(a.data)
	a.data = slices.Grow(a.data, len(key)+len(value))
	a.data = append(a.data, key...)
	a.data = append(a.data, value...)
	a.recs = append(a.recs, arenaRec{off: off, klen: int32(len(key)), vlen: int32(len(value))})
}

// Len returns the record count.
func (a *Arena) Len() int { return len(a.recs) }

// Bytes returns the payload, every key and value in arrival order; its
// length is the key+value volume shuffle counters measure.
func (a *Arena) Bytes() []byte { return a.data }

// Grow makes room for n more payload bytes and recs more records.
func (a *Arena) Grow(n, recs int) {
	a.data = slices.Grow(a.data, n)
	a.recs = slices.Grow(a.recs, recs)
}

// Reset empties the arena, keeping its storage.
func (a *Arena) Reset() {
	a.data, a.recs = a.data[:0], a.recs[:0]
}

// Key returns record i's key, nil when it is empty. The capacity is
// clamped so appending to the view cannot clobber the neighbouring record.
func (a *Arena) Key(i int) []byte {
	r := a.recs[i]
	if r.klen == 0 {
		return nil
	}
	end := r.off + int(r.klen)
	return a.data[r.off:end:end]
}

// Value returns record i's value (nil when empty), capacity-clamped like
// Key.
func (a *Arena) Value(i int) []byte {
	r := a.recs[i]
	if r.vlen == 0 {
		return nil
	}
	lo := r.off + int(r.klen)
	end := lo + int(r.vlen)
	return a.data[lo:end:end]
}

// Checksum hashes the payload, then each record's two lengths. The engine
// records one checksum per resident (mapper, reducer) segment when a fault
// plan is active and verifies each fetch against it, the role Hadoop's
// IFile checksums play for map-output transfers: a corrupted fetch is
// detected and re-pulled instead of silently grouped.
func (a *Arena) Checksum() uint64 {
	h := NewHash()
	h.Write(a.data)
	var buf [8]byte
	for _, r := range a.recs {
		binary.LittleEndian.PutUint32(buf[:4], uint32(r.klen))
		binary.LittleEndian.PutUint32(buf[4:], uint32(r.vlen))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Absorb appends a copy of every record of src to a, preserving order.
func (a *Arena) Absorb(src *Arena) {
	base := len(a.data)
	a.data = append(a.data, src.data...)
	for _, r := range src.recs {
		r.off += base
		a.recs = append(a.recs, r)
	}
}

// AppendRecords appends the arena's records, framed, to dst: the wire form
// of a segment.
func (a *Arena) AppendRecords(dst []byte) []byte {
	for i := range a.recs {
		dst = AppendRecord(dst, a.Key(i), a.Value(i))
	}
	return dst
}

// sortKey pairs a record index with the big-endian packing of its key's
// first eight bytes plus the key length. Prefix order agrees with
// lexicographic byte order whenever the prefixes differ (shorter keys
// zero-pad, and a zero pad byte only collides with a real 0x00 key byte — a
// prefix tie). On a prefix tie, keys of at most eight bytes order by length
// alone: equal prefixes mean the shorter key is the longer one's prefix. So
// the arena is only touched when two keys longer than eight bytes collide
// on their prefix — every other comparison is integer arithmetic on the
// 16-byte sortKey itself.
type sortKey struct {
	prefix uint64
	klen   int32
	idx    int32
}

func keyPrefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var p uint64
	for i, b := range k {
		p |= uint64(b) << (56 - 8*i)
	}
	return p
}

// SortedIndex returns the arena's record indices ordered by key bytes,
// ties broken by arrival order. Records absorbed mapper-by-mapper therefore
// group per key in (mapper index, emission order) — the engine's documented
// value order.
func (a *Arena) SortedIndex() []int32 {
	sk := make([]sortKey, len(a.recs))
	for i := range sk {
		sk[i] = sortKey{prefix: keyPrefix(a.Key(i)), klen: a.recs[i].klen, idx: int32(i)}
	}
	slices.SortFunc(sk, func(x, y sortKey) int {
		if x.prefix != y.prefix {
			return cmp.Compare(x.prefix, y.prefix)
		}
		if x.klen > 8 && y.klen > 8 {
			if c := bytes.Compare(a.Key(int(x.idx))[8:], a.Key(int(y.idx))[8:]); c != 0 {
				return c
			}
		} else if x.klen != y.klen {
			return cmp.Compare(x.klen, y.klen)
		}
		return cmp.Compare(x.idx, y.idx)
	})
	idx := make([]int32, len(sk))
	for i, k := range sk {
		idx[i] = k.idx
	}
	return idx
}

// Span is one key's run inside a sorted index.
type Span struct{ Lo, Hi int32 }

// GroupRuns slices a sorted index into per-key runs.
func (a *Arena) GroupRuns(idx []int32) []Span {
	var groups []Span
	for i := 0; i < len(idx); {
		key := a.Key(int(idx[i]))
		j := i + 1
		for j < len(idx) && bytes.Equal(a.Key(int(idx[j])), key) {
			j++
		}
		groups = append(groups, Span{Lo: int32(i), Hi: int32(j)})
		i = j
	}
	return groups
}
