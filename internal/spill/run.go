package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"mrskyline/internal/frame"
)

// Run file layout. Records are framed by internal/frame — the framing
// shuffle segments use on the rpcexec wire — bracketed by a fixed header
// and trailer:
//
//	magic   8 bytes  "SKYRUN1\n"
//	records          uvarint(klen) key uvarint(vlen) value ...
//	count   8 bytes  little-endian record count
//	frames  8 bytes  little-endian byte length of the records region
//	sum     8 bytes  little-endian FNV-1a over everything above
//
// The checksum covers the magic, every record byte and the two trailer
// counts, and is verified incrementally as a frame.Reader streams the
// file: a flipped bit anywhere surfaces as *CorruptError by the time the
// run is drained, before its consumer commits anything derived from it.

const (
	runMagic       = "SKYRUN1\n"
	runTrailerSize = 24
)

// RunFile describes one sorted run on disk.
type RunFile struct {
	// Path is the file location.
	Path string
	// Tag identifies the run's producer (the engine stores the map-task
	// id); it travels into CorruptError so consumers can re-execute the
	// producer. Intermediate merge outputs carry -1.
	Tag int
	// Records is the record count.
	Records int64
	// PayloadBytes is the key+value volume (framing excluded) — the
	// quantity shuffle counters measure.
	PayloadBytes int64
	// FrameBytes is the byte length of the records region.
	FrameBytes int64
}

// runWriter streams one run file through a hashing frame.Writer.
type runWriter struct {
	f  *os.File
	fw *frame.Writer
	rf RunFile
}

// createRun opens a new run file at path.
func createRun(path string, tag int) (*runWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("spill: creating run: %w", err)
	}
	w := &runWriter{f: f, fw: frame.NewWriter(f, 1<<16), rf: RunFile{Path: path, Tag: tag}}
	if err := w.fw.Raw([]byte(runMagic)); err != nil {
		w.abort()
		return nil, err
	}
	return w, nil
}

// add appends one framed record.
func (w *runWriter) add(key, value []byte) error {
	w.rf.Records++
	w.rf.PayloadBytes += int64(len(key) + len(value))
	return w.fw.Record(key, value)
}

// finish writes the trailer and closes the file, returning the completed
// descriptor. The file is removed on error.
func (w *runWriter) finish() (RunFile, error) {
	w.rf.FrameBytes = w.fw.Offset() - int64(len(runMagic))
	var counts [16]byte
	binary.LittleEndian.PutUint64(counts[0:], uint64(w.rf.Records))
	binary.LittleEndian.PutUint64(counts[8:], uint64(w.rf.FrameBytes))
	err := w.fw.Raw(counts[:])
	if err == nil {
		err = w.fw.Finish()
	}
	if err == nil {
		err = w.f.Close()
	}
	if err != nil {
		w.abort()
		return RunFile{}, err
	}
	return w.rf, nil
}

// abort discards a partially written run.
func (w *runWriter) abort() {
	w.f.Close()
	os.Remove(w.rf.Path)
}

// RunReader replays one run file in record order, verifying the checksum
// incrementally; the final Next that returns io.EOF has proven the whole
// file intact (or returned *CorruptError).
type RunReader struct {
	rf      RunFile
	f       *os.File
	fr      *frame.Reader
	read    int64 // records consumed
	wantSum uint64
}

// OpenRun opens a run file for streaming. bufSize shapes the read buffer
// (≤ 0 uses 64 KiB).
func OpenRun(rf RunFile, bufSize int) (*RunReader, error) {
	if bufSize <= 0 {
		bufSize = 1 << 16
	}
	f, err := os.Open(rf.Path)
	if err != nil {
		return nil, fmt.Errorf("spill: opening run: %w", err)
	}
	r := &RunReader{rf: rf, f: f, fr: frame.NewReader(f, bufSize)}
	if err := r.open(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// open reads the trailer up front — the counts locate the record region,
// the stored checksum is compared once streaming reaches its end — then
// the magic.
func (r *RunReader) open() error {
	st, err := r.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < int64(len(runMagic))+runTrailerSize {
		return r.corrupt(nil)
	}
	var trailer [runTrailerSize]byte
	if _, err := r.f.ReadAt(trailer[:], st.Size()-runTrailerSize); err != nil {
		return err
	}
	r.rf.Records = int64(binary.LittleEndian.Uint64(trailer[0:]))
	r.rf.FrameBytes = int64(binary.LittleEndian.Uint64(trailer[8:]))
	r.wantSum = binary.LittleEndian.Uint64(trailer[16:])
	if r.rf.FrameBytes != st.Size()-int64(len(runMagic))-runTrailerSize || r.rf.Records < 0 {
		return r.corrupt(nil)
	}
	var magic [len(runMagic)]byte
	if err := r.fr.Raw(magic[:]); err != nil || string(magic[:]) != runMagic {
		return r.corrupt(nil)
	}
	r.fr.Limit(r.rf.FrameBytes)
	return nil
}

// Next returns the next record; zero-length keys and values are nil. The
// returned slices are valid until the following Next call. At end of file
// the checksum is verified: a clean end returns io.EOF, a mismatch returns
// *CorruptError.
func (r *RunReader) Next() (key, value []byte, err error) {
	key, value, err = r.fr.Next()
	if err == io.EOF {
		return nil, nil, r.verify()
	}
	if r.read++; err != nil || r.read > r.rf.Records {
		return nil, nil, r.corrupt(err)
	}
	return key, value, nil
}

// verify checks the record count and the trailer checksum once the record
// region is drained.
func (r *RunReader) verify() error {
	var counts [16]byte
	binary.LittleEndian.PutUint64(counts[0:], uint64(r.rf.Records))
	binary.LittleEndian.PutUint64(counts[8:], uint64(r.rf.FrameBytes))
	h := r.fr.Hash()
	h.Write(counts[:])
	if r.read != r.rf.Records || h.Sum64() != r.wantSum {
		return r.corrupt(nil)
	}
	return io.EOF
}

// corrupt names the run around the reader's report; a break the reader did
// not see (trailer shape, record count, sum) vouches for nothing: offset 0.
func (r *RunReader) corrupt(cause error) error {
	ce := &CorruptError{Path: r.rf.Path, Tag: r.rf.Tag}
	var fe *frame.CorruptError
	if errors.As(cause, &fe) {
		ce.Frame = *fe
	}
	return ce
}

// Close releases the underlying file.
func (r *RunReader) Close() error { return r.f.Close() }
