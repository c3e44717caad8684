package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mrskyline/internal/frame"
	"mrskyline/internal/obs"
)

// Segment file layout. A record's payload is one internal/frame chunk, as
// in spill's SKYRUN1 runs, but because a log grows record by record the
// checksum cannot be a single end-of-file trailer: each record instead
// carries the running frame.Hash over every byte of the file so far
// (magic, all earlier frames, payloads and sums, this record's frame and
// payload). A reader replays the same incremental hash, so a flipped bit
// or torn write anywhere is caught at the first record it touches:
//
//	magic   8 bytes  "SKYWAL1\n"
//	records          uvarint(plen) payload sum8
//
// where sum8 is the little-endian running FNV-1a just described.
const segMagic = "SKYWAL1\n"

// segInfo describes one sealed segment: the generations its records span
// and its path. An empty segment has lastGen == firstGen-1.
type segInfo struct {
	firstGen, lastGen uint64
	path              string
}

func segPath(dir string, firstGen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", firstGen))
}

// segmentLog is the writer side of the log: one active segment plus the
// sealed ones not yet truncated by a checkpoint. All methods must be
// called under the owning Durable's mutex.
type segmentLog struct {
	dir      string
	segBytes int64
	reg      *obs.Registry

	f                 *os.File
	h                 frame.Hash
	size              int64
	records           int64
	firstGen, lastGen uint64
	sealed            []segInfo
	buf               []byte
}

// openLog creates a fresh log whose first segment starts at firstGen.
func openLog(dir string, firstGen uint64, segBytes int64, reg *obs.Registry) (*segmentLog, error) {
	l := &segmentLog{dir: dir, segBytes: segBytes, reg: reg}
	if err := l.openSegment(firstGen); err != nil {
		return nil, err
	}
	return l, nil
}

// openSegment starts a new active segment file (magic written and synced,
// directory entry synced) whose first record will carry firstGen.
func (l *segmentLog) openSegment(firstGen uint64) error {
	path := segPath(l.dir, firstGen)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	h := frame.NewHash()
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	h.Write([]byte(segMagic))
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: syncing segment header: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	l.f, l.h = f, h
	l.size = int64(len(segMagic))
	l.records = 0
	l.firstGen, l.lastGen = firstGen, firstGen-1
	l.reg.Count("wal.segments.created", 1)
	return nil
}

// append writes one framed record carrying gen. On a short or failed
// write it truncates the file back to the pre-record offset so the log
// stays parseable; if even that repair fails the returned error is fatal
// and the caller must stop using the log.
func (l *segmentLog) append(gen uint64, payload []byte) error {
	if l.records > 0 && l.size >= l.segBytes {
		if err := l.roll(gen); err != nil {
			return err
		}
	}
	l.buf = frame.AppendChunk(l.buf[:0], payload)
	h := l.h // branch the running hash so a failed append leaves it intact
	h.Write(l.buf)
	l.buf = frame.AppendSum(l.buf, &h)
	crashPoint("append.write", gen, l.f, l.buf)
	if _, err := l.f.Write(l.buf); err != nil {
		if terr := l.truncateTo(l.size); terr != nil {
			return &fatalError{fmt.Errorf("wal: append failed (%v) and truncate repair failed: %w", err, terr)}
		}
		return fmt.Errorf("wal: appending record: %w", err)
	}
	l.h = h
	l.size += int64(len(l.buf))
	l.records++
	l.lastGen = gen
	l.reg.Count("wal.append.records", 1)
	l.reg.Count("wal.append.bytes", int64(len(l.buf)))
	return nil
}

// truncateTo cuts the active segment back to off and repositions the
// write offset there.
func (l *segmentLog) truncateTo(off int64) error {
	if err := l.f.Truncate(off); err != nil {
		return err
	}
	_, err := l.f.Seek(off, 0)
	return err
}

// fatalError marks log failures the caller cannot retry past.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

// sync fsyncs the active segment, recording latency.
func (l *segmentLog) sync() error {
	start := time.Now()
	err := l.f.Sync()
	l.reg.Observe("wal.fsync.ns", time.Since(start).Nanoseconds())
	l.reg.Count("wal.fsyncs", 1)
	if err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// roll seals the active segment (synced and closed) and starts a fresh
// one whose first record will carry nextFirstGen.
func (l *segmentLog) roll(nextFirstGen uint64) error {
	if err := l.sync(); err != nil {
		return err
	}
	path := l.f.Name()
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	l.sealed = append(l.sealed, segInfo{firstGen: l.firstGen, lastGen: l.lastGen, path: path})
	return l.openSegment(nextFirstGen)
}

// close syncs and closes the active segment.
func (l *segmentLog) close() error {
	serr := l.sync()
	cerr := l.f.Close()
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return fmt.Errorf("wal: closing segment: %w", cerr)
	}
	return nil
}

// tornError reports a segment whose bytes stop checksumming at Frame.Off —
// either a torn tail (recoverable by truncation when it is the final
// segment) or hard corruption (anywhere else).
type tornError struct {
	Frame frame.CorruptError // Off: last offset at which the segment was intact
	Path  string
	Lost  int64 // bytes past Off
}

func (e *tornError) Error() string {
	return fmt.Sprintf("wal: segment %s breaks at offset %d (%d bytes unreadable)", e.Path, e.Frame.Off, e.Lost)
}

func (e *tornError) Unwrap() error { return &e.Frame }

// scanSegment replays one segment's records, verifying the running
// checksum record by record. It returns every intact payload (aliasing
// one shared buffer — decode before the caller drops it), the offset up
// to which the file checks out, and a *tornError when anything past that
// offset fails to parse or verify.
func scanSegment(path string) (payloads [][]byte, goodOff int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: reading segment: %w", err)
	}
	torn := func(off int) error {
		return &tornError{Frame: frame.CorruptError{Off: int64(off)}, Path: path, Lost: int64(len(b) - off)}
	}
	if len(b) < len(segMagic) || string(b[:len(segMagic)]) != segMagic {
		return nil, 0, torn(0)
	}
	off := len(segMagic)
	h := frame.NewHash()
	h.Write(b[:off])
	for off < len(b) {
		payload, end, err := frame.Chunk(b, off)
		if err != nil {
			break
		}
		hr := h
		hr.Write(b[off:end])
		if !frame.CheckSum(b, end, &hr) {
			break
		}
		h = hr
		payloads = append(payloads, payload)
		off = end + frame.SumSize
	}
	if off != len(b) {
		return payloads, int64(off), torn(off)
	}
	return payloads, int64(off), nil
}

// syncDir fsyncs a directory so entry creations, renames and removals
// inside it are durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir for sync: %w", err)
	}
	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		return fmt.Errorf("wal: syncing dir: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: closing dir after sync: %w", cerr)
	}
	return nil
}
