package frame

import (
	"bufio"
	"encoding/binary"
	"io"
	"slices"
)

// Writer is a buffered writer that hashes every byte it is handed, in the
// order a Reader will see them, and knows its offset.
type Writer struct {
	bw      *bufio.Writer
	h       Hash
	off     int64
	scratch []byte
}

// NewWriter buffers bufSize bytes in front of w.
func NewWriter(w io.Writer, bufSize int) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, bufSize), h: NewHash()}
}

// Raw writes unframed bytes: a magic, fixed-width counts, a payload framed
// by something else.
func (w *Writer) Raw(p []byte) error {
	w.h.Write(p)
	w.off += int64(len(p))
	_, err := w.bw.Write(p)
	return err
}

// Record writes one framed record.
func (w *Writer) Record(key, value []byte) error {
	w.scratch = AppendRecord(w.scratch[:0], key, value)
	return w.Raw(w.scratch)
}

// Offset is the number of bytes written so far.
func (w *Writer) Offset() int64 { return w.off }

// Finish ends the stream with the checksum of everything written so far
// (AppendSum's eight bytes) and flushes it to the underlying writer.
func (w *Writer) Finish() error {
	w.scratch = AppendSum(w.scratch[:0], &w.h)
	w.off += SumSize
	if _, err := w.bw.Write(w.scratch); err != nil {
		return err
	}
	return w.bw.Flush()
}

// MaxChunk caps the key or value a Reader will allocate for, whatever a
// damaged length prefix in front of a large region says.
const MaxChunk = 1 << 30

// Reader streams a framed file: raw bytes (Raw), then a region of records
// of a known byte length (Limit, Next). It never reads past the region,
// never allocates more than the region has left, and hashes every byte it
// consumes in file order, for the caller to compare with a stored sum. A
// region is verified only as a whole, by that sum, so a record that does
// not parse is reported at the region's start: framing cannot tell a
// damaged length from the damage an earlier one caused.
type Reader struct {
	br        *bufio.Reader
	h         Hash
	off       int64
	base      int64 // where the current region began
	remaining int64 // region bytes not yet consumed
	buf       []byte
}

// NewReader buffers bufSize bytes in front of r.
func NewReader(r io.Reader, bufSize int) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, bufSize), h: NewHash()}
}

// Raw fills p with the next len(p) bytes. A short read is a *CorruptError
// at the offset the read started from.
func (r *Reader) Raw(p []byte) error {
	if _, err := io.ReadFull(r.br, p); err != nil {
		return &CorruptError{Off: r.off}
	}
	r.h.Write(p)
	r.off += int64(len(p))
	return nil
}

// Limit opens a region of n bytes of records at the current offset.
func (r *Reader) Limit(n int64) {
	r.base, r.remaining = r.off, n
}

// Hash returns the hash of every byte consumed so far.
func (r *Reader) Hash() Hash { return r.h }

// Next returns the region's next record; the slices are valid until the
// following call. io.EOF means the region ended on a record boundary. A
// length that does not parse, exceeds MaxChunk or overruns the region, or a
// short read, is a *CorruptError at the region's start; the reader must not
// be used after one.
func (r *Reader) Next() (key, value []byte, err error) {
	if r.remaining == 0 {
		return nil, nil, io.EOF
	}
	r.buf = r.buf[:0]
	if !r.chunk() {
		return nil, nil, &CorruptError{Off: r.base}
	}
	klen := len(r.buf)
	if !r.chunk() {
		return nil, nil, &CorruptError{Off: r.base}
	}
	if end := len(r.buf); end > klen {
		value = r.buf[klen:end:end]
	}
	if klen > 0 {
		key = r.buf[:klen:klen]
	}
	return key, value, nil
}

// chunk appends the region's next chunk to buf, its length checked against
// MaxChunk and what the region has left before anything is allocated.
func (r *Reader) chunk() bool {
	p, _ := r.br.Peek(int(min(binary.MaxVarintLen64, r.remaining))) // a short peek fails Uvarint
	l, n := binary.Uvarint(p)
	if n <= 0 || l > MaxChunk || int64(l) > r.remaining-int64(n) {
		return false
	}
	r.h.Write(p[:n]) // before the next read reuses bufio's buffer under p
	r.br.Discard(n)
	at := len(r.buf)
	r.buf = slices.Grow(r.buf, int(l))[:at+int(l)]
	if _, err := io.ReadFull(r.br, r.buf[at:]); err != nil {
		return false
	}
	r.h.Write(r.buf[at:])
	r.off += int64(n) + int64(l)
	r.remaining -= int64(n) + int64(l)
	return true
}
