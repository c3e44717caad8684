package frame

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/fnv"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// goldenRecs is the fixed input of the format goldens (internal/spill,
// internal/mapreduce and internal/wal pin their formats over the same
// list): an empty key, an empty value, two keys sharing an eight-byte
// prefix, a duplicate key and a value long enough for a two-byte length
// prefix.
var goldenRecs = []Record{
	{Key: []byte("key-long-0002"), Value: []byte("yy")},
	{Key: []byte("a")},
	{Value: []byte("v0")},
	{Key: []byte("key-long-0001"), Value: []byte("x")},
	{Key: []byte("b"), Value: []byte(strings.Repeat("z", 130))},
	{Key: []byte("a"), Value: []byte("dup")},
}

// The framed stream of goldenRecs and its checksum, as pinned for the
// rpcexec wire before this package existed.
var (
	goldenRecordsHex = "0d6b65792d6c6f6e672d30303032027979" + "016100" + "00027630" +
		"0d6b65792d6c6f6e672d303030310178" + "01628201" + strings.Repeat("7a", 130) + "016103647570"
	goldenRecordsSum = uint64(0x85337278f7fea11d)
)

func TestGoldenFraming(t *testing.T) {
	var a Arena
	var framed []byte
	for _, r := range goldenRecs {
		a.Add(r.Key, r.Value)
		framed = AppendRecord(framed, r.Key, r.Value)
	}
	if got := hex.EncodeToString(framed); got != goldenRecordsHex {
		t.Errorf("AppendRecord framing changed:\n got %s\nwant %s", got, goldenRecordsHex)
	}
	if got := hex.EncodeToString(a.AppendRecords(nil)); got != goldenRecordsHex {
		t.Errorf("Arena.AppendRecords framing changed:\n got %s\nwant %s", got, goldenRecordsHex)
	}
	if got := Sum(framed); got != goldenRecordsSum {
		t.Errorf("Sum = %#x, want %#x", got, goldenRecordsSum)
	}
	var back []Record
	if err := WalkRecords(framed, func(k, v []byte) error {
		back = append(back, Record{Key: k, Value: v})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, goldenRecs) {
		t.Errorf("WalkRecords = %q, want %q (zero lengths nil)", back, goldenRecs)
	}
}

// TestHashIsFNV1a: Hash is hash/fnv's 64-bit FNV-1a, resumable and
// branchable by value.
func TestHashIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := fnv.New64a()
	h := NewHash()
	for i := 0; i < 50; i++ {
		p := make([]byte, rng.Intn(40))
		rng.Read(p)
		ref.Write(p)
		h.Write(p)
		if h.Sum64() != ref.Sum64() {
			t.Fatalf("after %d writes: Hash = %#x, hash/fnv = %#x", i+1, h.Sum64(), ref.Sum64())
		}
	}
	branch := h
	branch.Write([]byte("tried and abandoned"))
	if h.Sum64() != ref.Sum64() {
		t.Error("writing to a copy moved the original")
	}
	if NewHash().Sum64() != fnv.New64a().Sum64() || Sum(nil) != NewHash().Sum64() {
		t.Error("empty hash is not FNV's offset basis")
	}
}

func TestSumAppendAndCheck(t *testing.T) {
	h := NewHash()
	h.Write([]byte("payload"))
	before := h
	b := AppendSum([]byte("payload"), &h)
	if len(b) != len("payload")+SumSize || binary.LittleEndian.Uint64(b[7:]) != before.Sum64() {
		t.Fatalf("AppendSum wrote %x, want the little-endian sum %#x", b[7:], before.Sum64())
	}
	if h == before {
		t.Error("AppendSum did not fold the stored sum into the running hash")
	}
	check := before
	if !CheckSum(b, 7, &check) || check != h {
		t.Error("CheckSum rejects what AppendSum wrote, or leaves a different running hash")
	}
	check = before
	b[9] ^= 1
	if CheckSum(b, 7, &check) || check != before {
		t.Error("CheckSum accepted a damaged sum, or moved the hash on a mismatch")
	}
	if CheckSum(b[:12], 7, &check) {
		t.Error("CheckSum read past a short buffer")
	}
}

func TestChunk(t *testing.T) {
	b := AppendChunk(AppendChunk(AppendChunk(nil, []byte("ab")), nil), bytes.Repeat([]byte("x"), 200))
	c, off, err := Chunk(b, 0)
	if err != nil || string(c) != "ab" || cap(c) != 2 {
		t.Fatalf("first chunk = %q (cap %d), %v", c, cap(c), err)
	}
	c, off, err = Chunk(b, off)
	if err != nil || c != nil {
		t.Fatalf("empty chunk = %v, %v; want nil", c, err)
	}
	c, off, err = Chunk(b, off)
	if err != nil || len(c) != 200 || off != len(b) {
		t.Fatalf("long chunk: len %d, next %d of %d, %v", len(c), off, len(b), err)
	}
	for name, bad := range map[string][]byte{
		"end of buffer":      {},
		"unterminated":       {0x80, 0x80},
		"overruns":           {0x05, 'a', 'b'},
		"overflows 64 bits":  bytes.Repeat([]byte{0xff}, 11),
		"length beyond int":  {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"after a good chunk": append(AppendChunk(nil, []byte("ok")), 0x7f),
	} {
		off := 0
		if name == "after a good chunk" {
			off = 3
		}
		_, next, err := Chunk(bad, off)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Off != int64(off) || next != off {
			t.Errorf("%s: Chunk = next %d, %v; want *CorruptError at %d", name, next, err, off)
		}
	}
}

func TestWalkRecordsErrors(t *testing.T) {
	b := AppendRecord(AppendRecord(nil, []byte("k1"), []byte("v1")), []byte("k2"), []byte("v2"))
	var ce *CorruptError
	for cut := 1; cut < len(b); cut++ {
		if cut == len(b)/2 {
			continue // the record boundary: a clean, shorter stream
		}
		if err := WalkRecords(b[:cut], func(k, v []byte) error { return nil }); !errors.As(err, &ce) {
			t.Errorf("cut at %d: %v, want *CorruptError", cut, err)
		}
	}
	stop := errors.New("stop")
	n := 0
	if err := WalkRecords(b, func(k, v []byte) error { n++; return stop }); err != stop || n != 1 {
		t.Errorf("fn's error: got %v after %d records, want it back after 1", err, n)
	}
	if (&CorruptError{Off: 42}).Error() != "frame: stream breaks at offset 42" {
		t.Errorf("CorruptError.Error() = %q", (&CorruptError{Off: 42}).Error())
	}
}

// failAfter fails every write past its first n bytes.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, io.ErrShortWrite
	}
	return len(p), nil
}

func TestWriterReportsWriteErrors(t *testing.T) {
	w := NewWriter(&failAfter{n: 8}, 16)
	err := w.Raw([]byte("12345678"))
	for i := 0; i < 4 && err == nil; i++ {
		err = w.Record([]byte("key"), []byte("value"))
	}
	if err == nil {
		err = w.Finish()
	}
	if !errors.Is(err, io.ErrShortWrite) {
		t.Errorf("a failing sink surfaced %v, want io.ErrShortWrite", err)
	}
}

// ---------------------------------------------------------------------------
// The stream the Reader is tested on: an eight-byte magic, a region of
// records, the sum of both — SKYRUN1 without its counts.

const streamMagic = "FRAMETS\n"

func writeStream(tb testing.TB, recs []Record) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, 32)
	err := w.Raw([]byte(streamMagic))
	for _, r := range recs {
		if err == nil {
			err = w.Record(r.Key, r.Value)
		}
	}
	if err == nil {
		err = w.Finish()
	}
	if err != nil {
		tb.Fatal(err)
	}
	if w.Offset() != int64(buf.Len()) {
		tb.Fatalf("Offset() = %d after writing %d bytes", w.Offset(), buf.Len())
	}
	return buf.Bytes()
}

// readStream is the layout's reader. Like SKYRUN1's it vouches for nothing
// until the sum has matched: a bad magic or sum is a break at offset 0.
func readStream(b []byte) (recs []Record, r *Reader, err error) {
	r = NewReader(bytes.NewReader(b), 16)
	var magic [len(streamMagic)]byte
	if err := r.Raw(magic[:]); err != nil {
		return nil, r, err
	}
	region := int64(len(b)) - int64(len(streamMagic)) - SumSize
	if string(magic[:]) != streamMagic || region < 0 {
		return nil, r, &CorruptError{Off: 0}
	}
	r.Limit(region)
	for {
		k, v, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, r, err
		}
		recs = append(recs, Record{Key: keep(k), Value: keep(v)})
	}
	h := r.Hash()
	var sum [SumSize]byte
	if err := r.Raw(sum[:]); err != nil {
		return nil, r, err
	}
	if !CheckSum(sum[:], 0, &h) {
		return nil, r, &CorruptError{Off: 0}
	}
	return recs, r, nil
}

// keep copies b, preserving nil-versus-empty.
func keep(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte{}, b...)
}

func TestReaderRoundTrip(t *testing.T) {
	b := writeStream(t, goldenRecs)
	if got := hex.EncodeToString(b[len(streamMagic) : len(b)-SumSize]); got != goldenRecordsHex {
		t.Fatalf("Writer.Record framing differs from AppendRecord's:\n got %s\nwant %s", got, goldenRecordsHex)
	}
	recs, _, err := readStream(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, goldenRecs) {
		t.Errorf("read back %q, want %q (zero lengths nil)", recs, goldenRecs)
	}
	// A Next past the end of the region keeps saying so.
	r := NewReader(bytes.NewReader(nil), 16)
	for i := 0; i < 2; i++ {
		if _, _, err := r.Next(); err != io.EOF {
			t.Errorf("Next on an empty region = %v, want io.EOF", err)
		}
	}
}

// checkStream holds readStream to the contract on arbitrary bytes.
func checkStream(t *testing.T, golden, b []byte) {
	damaged := 0 // first byte at which b is not the golden stream
	for damaged < len(b) && damaged < len(golden) && b[damaged] == golden[damaged] {
		damaged++
	}
	recs, r, err := readStream(b)
	if cap(r.buf) > 2*len(b)+64 { // append's growth policy, never a length prefix's say-so
		t.Fatalf("reader holds a %d-byte buffer for a %d-byte stream", cap(r.buf), len(b))
	}
	if err != nil {
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("rejected with %v, want *CorruptError", err)
		}
		if ce.Off < 0 || ce.Off > int64(damaged) {
			t.Fatalf("reports intact up to %d, but byte %d is damaged", ce.Off, damaged)
		}
		return
	}
	if len(b) == len(golden) && singleBit(b, golden) {
		t.Fatal("accepted a stream one bit away from the golden one")
	}
	if len(b) < len(golden) && bytes.HasPrefix(golden, b) {
		t.Fatalf("accepted the golden stream cut to %d bytes", len(b))
	}
	// What was accepted survives a canonical re-encoding. (Not the same
	// bytes: a uvarint has non-canonical spellings the reader accepts.)
	var enc []byte
	for _, rec := range recs {
		enc = AppendRecord(enc, rec.Key, rec.Value)
	}
	if region := len(b) - len(streamMagic) - SumSize; len(enc) > region {
		t.Fatalf("canonical encoding is %d bytes, the accepted region %d", len(enc), region)
	}
	var back []Record
	if err := WalkRecords(enc, func(k, v []byte) error {
		back = append(back, Record{Key: keep(k), Value: keep(v)})
		return nil
	}); err != nil || !reflect.DeepEqual(back, recs) {
		t.Fatalf("re-encoded records decode to %q (%v), want %q", back, err, recs)
	}
	// The slice walker and the streaming reader agree on the region.
	var walked []Record
	if err := WalkRecords(b[len(streamMagic):len(b)-SumSize], func(k, v []byte) error {
		walked = append(walked, Record{Key: keep(k), Value: keep(v)})
		return nil
	}); err != nil || !reflect.DeepEqual(walked, recs) {
		t.Fatalf("WalkRecords reads %q (%v) where Reader read %q", walked, err, recs)
	}
}

// singleBit reports whether equal-length a and b differ in exactly one bit.
func singleBit(a, b []byte) bool {
	bits := 0
	for i := range a {
		for x := a[i] ^ b[i]; x != 0; x &= x - 1 {
			bits++
		}
	}
	return bits == 1
}

// FuzzFrameReader: bytes from disk or a peer never panic the reader, never
// make it allocate more than they are long, decode to records that survive
// re-encoding when accepted, and when rejected are reported intact no
// further than their first damaged byte. Seeded with the golden stream,
// every single-bit flip of it and every truncation.
func FuzzFrameReader(f *testing.F) {
	golden := writeStream(f, goldenRecs)
	f.Add(golden)
	for i := range golden {
		f.Add(golden[:i])
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(golden)
			flipped[i] ^= 1 << bit
			f.Add(flipped)
		}
	}
	f.Add(append(bytes.Clone(golden), 0))
	f.Add([]byte(streamMagic + "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x02\x0012345678"))
	f.Fuzz(func(t *testing.T, b []byte) { checkStream(t, golden, b) })
}
