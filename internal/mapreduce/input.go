package mapreduce

import (
	"bytes"
	"fmt"
	"io"

	"mrskyline/internal/dfs"
	"mrskyline/internal/tuple"
)

// Input provides the splits of a job's input data. hint is the desired
// split count for sources that can chunk freely; block-backed sources
// ignore it.
type Input interface {
	Splits(hint int) ([]Split, error)
}

// Split is one mapper's share of the input.
type Split interface {
	// Hosts lists nodes holding the split's data locally (may be empty).
	Hosts() []string
	// Each streams the split's records in order.
	Each(fn func(Record) error) error
}

// ---------------------------------------------------------------------------
// In-memory record input

// MemoryInput serves records from memory, chunked into the hinted number of
// splits. It is the fast path used by the experiment harness, where data is
// generated in-process.
type MemoryInput struct {
	// Records are served in order, round-robin-free: split i gets the i-th
	// contiguous chunk.
	Records []Record
}

// Splits implements Input.
func (m MemoryInput) Splits(hint int) ([]Split, error) {
	if hint < 1 {
		hint = 1
	}
	n := len(m.Records)
	if hint > n && n > 0 {
		hint = n
	}
	if n == 0 {
		return []Split{memorySplit(nil)}, nil
	}
	splits := make([]Split, 0, hint)
	for i := 0; i < hint; i++ {
		lo := i * n / hint
		hi := (i + 1) * n / hint
		splits = append(splits, memorySplit(m.Records[lo:hi]))
	}
	return splits, nil
}

type memorySplit []Record

func (s memorySplit) Hosts() []string { return nil }

func (s memorySplit) Each(fn func(Record) error) error {
	for _, r := range s {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// TupleInput adapts a tuple list into an input: each record's value is the
// binary encoding of one tuple (key nil). Every value is a capacity-clipped
// window of one exactly sized arena, so the input is the arena plus the
// record slice whatever the cardinality, and it copies data: later changes
// to the list do not reach it. Building it is a full encoding pass, and
// nothing that reads an input writes to it, so internal/core builds one per
// run and gives the same input to the bitstring job and the skyline job.
func TupleInput(data tuple.List) MemoryInput {
	size := 0
	for _, t := range data {
		size += uvarintLen(uint64(len(t))) + 8*len(t)
	}
	buf := make([]byte, 0, size)
	recs := make([]Record, len(data))
	for i, t := range data {
		start := len(buf)
		buf = tuple.AppendEncode(buf, t)
		recs[i] = Record{Value: buf[start:len(buf):len(buf)]}
	}
	return MemoryInput{Records: recs}
}

// uvarintLen returns the encoded size of v, mirroring binary.AppendUvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DecodeTupleRecord recovers a tuple from a TupleInput record.
func DecodeTupleRecord(rec Record) (tuple.Tuple, error) {
	t, _, err := tuple.Decode(rec.Value)
	return t, err
}

// ---------------------------------------------------------------------------
// DFS-backed line input

// DFSLineInput reads newline-separated records from a file in the simulated
// distributed file system. One split is produced per block, and split
// boundaries are healed the way Hadoop's TextInputFormat heals them: a
// split whose offset is non-zero skips the (partial) line it starts inside,
// and every split reads past its end to finish its last line.
type DFSLineInput struct {
	FS   *dfs.FS
	Path string
}

// Splits implements Input.
func (in DFSLineInput) Splits(int) ([]Split, error) {
	blocks, err := in.FS.Blocks(in.Path)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: listing blocks: %w", err)
	}
	info, err := in.FS.Stat(in.Path)
	if err != nil {
		return nil, err
	}
	splits := make([]Split, len(blocks))
	for i, b := range blocks {
		splits[i] = &dfsLineSplit{
			fs:       in.FS,
			path:     in.Path,
			offset:   b.Offset,
			length:   int64(b.Length),
			fileSize: info.Size,
			hosts:    b.Hosts,
		}
	}
	return splits, nil
}

type dfsLineSplit struct {
	fs       *dfs.FS
	path     string
	offset   int64
	length   int64
	fileSize int64
	hosts    []string
}

func (s *dfsLineSplit) Hosts() []string { return s.hosts }

func (s *dfsLineSplit) Each(fn func(Record) error) error {
	r := &dfsReader{fs: s.fs, path: s.path, pos: s.offset}
	pos := s.offset
	// A split that does not start the file begins mid-line (or exactly at a
	// line start — indistinguishable without reading backwards), so it
	// skips through the first newline; the previous split owns that line.
	if s.offset > 0 {
		skipped, err := r.readLine()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		pos += int64(len(skipped))
	}
	// Read lines while their first byte is at or before the split end: a
	// line starting exactly at the boundary belongs to this split, because
	// the next split unconditionally skips its first line (Hadoop's
	// LineRecordReader contract).
	end := s.offset + s.length
	for pos <= end && pos < s.fileSize {
		line, err := r.readLine()
		if err == io.EOF && len(line) == 0 {
			return nil
		}
		if err != nil && err != io.EOF {
			return err
		}
		pos += int64(len(line))
		rec := bytes.TrimSuffix(line, []byte("\n"))
		rec = bytes.TrimSuffix(rec, []byte("\r"))
		if err := fn(Record{Value: rec}); err != nil {
			return err
		}
		if err == io.EOF {
			return nil
		}
	}
	return nil
}

// dfsReader is a buffered line reader over FS.ReadAt.
type dfsReader struct {
	fs   *dfs.FS
	path string
	pos  int64
	buf  []byte
	eof  bool
}

// readLine returns the next line including its trailing newline (if any).
// io.EOF is returned together with the final unterminated line, or alone.
func (r *dfsReader) readLine() ([]byte, error) {
	var line []byte
	for {
		if i := bytes.IndexByte(r.buf, '\n'); i >= 0 {
			line = append(line, r.buf[:i+1]...)
			r.buf = r.buf[i+1:]
			return line, nil
		}
		line = append(line, r.buf...)
		r.buf = r.buf[:0]
		if r.eof {
			if len(line) == 0 {
				return nil, io.EOF
			}
			return line, io.EOF
		}
		chunk := make([]byte, 64*1024)
		n, err := r.fs.ReadAt(r.path, chunk, r.pos)
		r.pos += int64(n)
		r.buf = append(r.buf, chunk[:n]...)
		if err == io.EOF {
			r.eof = true
		} else if err != nil {
			return nil, err
		}
	}
}

// ---------------------------------------------------------------------------
// Result chaining

// RecordsInput wraps the output of a previous job so it can feed the next
// one, split into the hinted number of chunks.
func RecordsInput(recs []Record) MemoryInput { return MemoryInput{Records: recs} }
