package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mrskyline/internal/frame"
	"mrskyline/internal/tuple"
)

// Snapshot file layout — a frame.Writer stream under one full-file checksum,
// since a checkpoint is written in one piece and renamed into place:
//
//	magic   8 bytes  "SKYSNAP\n"
//	payload          version, gen, dim, ppd, windowCap (uvarints)
//	                 lo, hi (dim × float64 bits each)
//	                 uvarint(len(meta)) meta
//	                 uvarint(len(rows)) rows (tuple wire encoding,
//	                                          global arrival order)
//	sum     8 bytes  little-endian FNV-1a over everything above
//
// Rows are serialized in arrival order because reseeding maintain.New
// with that order reproduces the pre-checkpoint state exactly: per-cell
// member order, every window, the sliding-window FIFO, and therefore the
// published skyline bytes. The grid domain and PPD are persisted so
// recovery rebuilds the identical grid instead of re-deriving a
// different one from the surviving rows.
const (
	snapMagic   = "SKYSNAP\n"
	snapVersion = 1
)

// snapshotState is one decoded checkpoint.
type snapshotState struct {
	Gen       uint64
	Dim       int
	PPD       int
	WindowCap int
	Lo, Hi    tuple.Tuple
	Meta      []byte
	Rows      tuple.List
}

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.ckpt", gen))
}

// writeSnapshot streams st to snap-<gen>.ckpt.tmp and renames it into
// place, syncing the file and the directory, so a crash leaves either the
// previous checkpoint set or the new one — never a half-written file that
// parses.
func writeSnapshot(dir string, st snapshotState) (string, error) {
	path := snapPath(dir, st.Gen)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("wal: creating snapshot: %w", err)
	}
	abort := func(err error) (string, error) {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	w := frame.NewWriter(f, 1<<16)
	if err := w.Raw([]byte(snapMagic)); err != nil {
		return abort(err)
	}
	scratch := binary.AppendUvarint(nil, snapVersion)
	scratch = binary.AppendUvarint(scratch, st.Gen)
	scratch = binary.AppendUvarint(scratch, uint64(st.Dim))
	scratch = binary.AppendUvarint(scratch, uint64(st.PPD))
	scratch = binary.AppendUvarint(scratch, uint64(st.WindowCap))
	for _, v := range st.Lo {
		scratch = binary.LittleEndian.AppendUint64(scratch, math.Float64bits(v))
	}
	for _, v := range st.Hi {
		scratch = binary.LittleEndian.AppendUint64(scratch, math.Float64bits(v))
	}
	scratch = frame.AppendChunk(scratch, st.Meta)
	scratch = binary.AppendUvarint(scratch, uint64(len(st.Rows)))
	if err := w.Raw(scratch); err != nil {
		return abort(err)
	}
	for _, t := range st.Rows {
		scratch = tuple.AppendEncode(scratch[:0], t)
		if err := w.Raw(scratch); err != nil {
			return abort(err)
		}
	}
	if err := w.Finish(); err != nil {
		return abort(err)
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("wal: syncing snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		return abort(fmt.Errorf("wal: closing snapshot: %w", err))
	}
	crashPoint("ckpt.written", st.Gen, nil, nil)
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("wal: publishing snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return path, nil
}

// errSnapCorrupt marks a snapshot that fails its checksum or does not
// parse; Recover skips it in favor of an older one.
var errSnapCorrupt = fmt.Errorf("wal: corrupt snapshot")

// readSnapshot loads and verifies one checkpoint. Any framing, bounds or
// checksum problem returns errSnapCorrupt (wrapped) — never a panic —
// so recovery and the replay fuzzers can treat arbitrary bytes safely.
func readSnapshot(path string) (*snapshotState, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: reading snapshot: %w", err)
	}
	if len(b) < len(snapMagic)+frame.SumSize || string(b[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: %s: bad magic or truncated", errSnapCorrupt, path)
	}
	body := b[:len(b)-frame.SumSize]
	h := frame.NewHash()
	h.Write(body)
	if !frame.CheckSum(b, len(body), &h) {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", errSnapCorrupt, path)
	}
	p := body[len(snapMagic):]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("%w: %s: truncated header", errSnapCorrupt, path)
		}
		p = p[n:]
		return v, nil
	}
	version, err := next()
	if err != nil {
		return nil, err
	}
	if version != snapVersion {
		return nil, fmt.Errorf("%w: %s: unsupported version %d", errSnapCorrupt, path, version)
	}
	st := &snapshotState{}
	if st.Gen, err = next(); err != nil {
		return nil, err
	}
	ints := []*int{&st.Dim, &st.PPD, &st.WindowCap}
	for _, dst := range ints {
		v, err := next()
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt32 {
			return nil, fmt.Errorf("%w: %s: implausible header value %d", errSnapCorrupt, path, v)
		}
		*dst = int(v)
	}
	if st.Dim <= 0 || st.Dim > 1024 {
		return nil, fmt.Errorf("%w: %s: implausible dimensionality %d", errSnapCorrupt, path, st.Dim)
	}
	if len(p) < 16*st.Dim {
		return nil, fmt.Errorf("%w: %s: truncated domain", errSnapCorrupt, path)
	}
	st.Lo = make(tuple.Tuple, st.Dim)
	st.Hi = make(tuple.Tuple, st.Dim)
	for i := range st.Lo {
		st.Lo[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		st.Hi[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*(st.Dim+i):]))
	}
	p = p[16*st.Dim:]
	meta, n, err := frame.Chunk(p, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: truncated meta", errSnapCorrupt, path)
	}
	st.Meta = append([]byte(nil), meta...)
	p = p[n:]
	count, err := next()
	if err != nil {
		return nil, err
	}
	if count > uint64(len(p)) { // a tuple occupies at least 1 byte
		return nil, fmt.Errorf("%w: %s: implausible row count %d", errSnapCorrupt, path, count)
	}
	st.Rows = make(tuple.List, 0, count)
	for i := uint64(0); i < count; i++ {
		t, n, err := tuple.Decode(p)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: row %d: %v", errSnapCorrupt, path, i, err)
		}
		if len(t) != st.Dim {
			return nil, fmt.Errorf("%w: %s: row %d has dimensionality %d, want %d", errSnapCorrupt, path, i, len(t), st.Dim)
		}
		p = p[n:]
		st.Rows = append(st.Rows, t)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %s: %d trailing bytes", errSnapCorrupt, path, len(p))
	}
	return st, nil
}

// parseSeq extracts the 16-hex-digit sequence number from names like
// wal-<seq>.log / snap-<seq>.ckpt.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(mid, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// dirEntry pairs a parsed sequence number with its path.
type dirEntry struct {
	seq  uint64
	path string
}

// listDir returns the prefix/suffix-matching entries of dir sorted by
// ascending sequence number.
func listDir(dir, prefix, suffix string) ([]dirEntry, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var out []dirEntry
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), prefix, suffix); ok {
			out = append(out, dirEntry{seq: seq, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}
