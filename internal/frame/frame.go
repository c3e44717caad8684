// Package frame is the record layer under the shuffle, the rpcexec wire,
// spill runs and the write-ahead log: how a record is held in memory
// (Arena), framed (a chunk is a uvarint length then that many bytes; a
// record is a key chunk and a value chunk), hashed (Hash, FNV-1a 64) and
// written and read back under bounds (Writer, Reader). It is the only
// package that parses a length prefix.
//
// The formats are not here: SKYRUN1 (internal/spill), SKYWAL1 and SKYSNAP
// (internal/wal) and the wire segment (internal/mapreduce) each lay magic,
// records and checksum out over these pieces, and each decides what to do
// about a break. frame reports where (CorruptError) and takes no policy.
//
// Wherever a record comes back out, a zero-length key or value is nil and
// the end of a stream is io.EOF, never a nil key.
package frame

import (
	"encoding/binary"
	"fmt"
)

// Hash is a resumable FNV-1a 64 state (hash/fnv's parameters). The value
// is the checksum so far, so copying it branches the hash: a writer can
// try a record on a copy and keep the original if the write fails, and a
// scanner can stop at the last record that verified.
type Hash uint64

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// NewHash returns the hash of no bytes.
func NewHash() Hash { return offset64 }

// Write folds p into the hash.
func (h *Hash) Write(p []byte) {
	s := uint64(*h)
	for _, b := range p {
		s ^= uint64(b)
		s *= prime64
	}
	*h = Hash(s)
}

// Sum64 returns the checksum of everything written so far.
func (h Hash) Sum64() uint64 { return uint64(h) }

// Sum hashes b in one call.
func Sum(b []byte) uint64 {
	h := NewHash()
	h.Write(b)
	return h.Sum64()
}

// SumSize is the encoded size of a checksum: eight little-endian bytes.
const SumSize = 8

// AppendSum appends the checksum so far to dst and folds those eight bytes
// into h: a hash that runs on past a stored sum (SKYWAL1) and one that ends
// at it (SKYRUN1, SKYSNAP) are written the same way.
func AppendSum(dst []byte, h *Hash) []byte {
	n := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, h.Sum64())
	h.Write(dst[n:])
	return dst
}

// CheckSum reports whether the eight bytes of b at off store h's checksum,
// and if so folds them into h — the reading twin of AppendSum.
func CheckSum(b []byte, off int, h *Hash) bool {
	if len(b)-off < SumSize || binary.LittleEndian.Uint64(b[off:]) != h.Sum64() {
		return false
	}
	h.Write(b[off : off+SumSize])
	return true
}

// CorruptError reports a stream that stopped parsing or verifying. Off is
// how far the reporter vouches for it: Chunk and WalkRecords name the start
// of what did not parse — the last intact offset when the caller verified
// everything before it, as SKYWAL1's per-record sums do — and a Reader the
// start of its region, which is verified only as a whole. Truncating there,
// re-producing the stream or fetching it again is the caller's decision.
type CorruptError struct {
	Off int64
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("frame: stream breaks at offset %d", e.Off)
}

// AppendChunk appends uvarint(len(b)) and b to dst.
func AppendChunk(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// Chunk reads the chunk starting at off, returning it (nil when empty,
// capacity clamped) and the offset after it. A length that does not parse
// or overruns b is a *CorruptError at off.
func Chunk(b []byte, off int) (chunk []byte, next int, err error) {
	l, n := binary.Uvarint(b[off:])
	if n <= 0 || l > uint64(len(b)-off-n) {
		return nil, off, &CorruptError{Off: int64(off)}
	}
	lo := off + n
	if l == 0 {
		return nil, lo, nil
	}
	end := lo + int(l)
	return b[lo:end:end], end, nil
}

// AppendRecord appends one framed record — a key chunk, then a value
// chunk — to dst.
func AppendRecord(dst, key, value []byte) []byte {
	return AppendChunk(AppendChunk(dst, key), value)
}

// WalkRecords parses a framed record stream, handing each record to fn.
// The slices alias b. A record that does not parse is a *CorruptError at
// the record's first byte; an error from fn stops the walk and is returned
// as is.
func WalkRecords(b []byte, fn func(key, value []byte) error) error {
	for off := 0; off < len(b); {
		key, next, err := Chunk(b, off)
		if err != nil {
			return err
		}
		val, next, err := Chunk(b, next)
		if err != nil {
			return &CorruptError{Off: int64(off)}
		}
		off = next
		if err := fn(key, val); err != nil {
			return err
		}
	}
	return nil
}
