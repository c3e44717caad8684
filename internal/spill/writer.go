package spill

import (
	"fmt"
	"path/filepath"

	"mrskyline/internal/frame"
)

// arenaRecOverhead is the bookkeeping cost per buffered record charged
// against the budget alongside the payload bytes.
const arenaRecOverhead = 16

// Writer accumulates records in a frame.Arena — the resident shuffle's own
// buffer and sort, so spilled and resident paths order identically — and
// flushes a sorted run file whenever its resident bytes (payload plus
// per-record bookkeeping) exceed the config's budget. Runs cut this way are
// totally ordered in arrival time — every record of run i was added before
// every record of run i+1 — so a merge that breaks key ties by run index
// reproduces the global (key, arrival order) of a single in-memory sort.
//
// A Writer is not safe for concurrent use; the engine drives one writer
// per shuffle segment.
type Writer struct {
	cfg    *Config
	prefix string
	tag    int
	seq    int

	buf  frame.Arena
	runs []RunFile
}

// NewWriter creates a writer whose runs are named prefix-<seq>.run inside
// cfg.Dir and tagged with tag (the producer identity carried into
// CorruptError).
func NewWriter(cfg *Config, prefix string, tag int) *Writer {
	return &Writer{cfg: cfg, prefix: prefix, tag: tag}
}

// resident is the writer's budget charge.
func (w *Writer) resident() int64 {
	return int64(len(w.buf.Bytes())) + int64(w.buf.Len())*arenaRecOverhead
}

// Add buffers one record (bytes are copied, so callers may reuse their
// scratch), spilling a sorted run first if the arena is over budget.
func (w *Writer) Add(key, value []byte) error {
	if w.cfg.Budget > 0 && w.buf.Len() > 0 && w.resident()+int64(len(key)+len(value))+arenaRecOverhead > w.cfg.Budget {
		if err := w.spill(); err != nil {
			return err
		}
	}
	w.buf.Add(key, value)
	w.cfg.Stats.addResident(int64(len(key)+len(value)) + arenaRecOverhead)
	return nil
}

// Len returns the number of records currently buffered in memory.
func (w *Writer) Len() int { return w.buf.Len() }

// spill sorts the arena (stable: key bytes, then arrival order) and
// writes it as one run file.
func (w *Writer) spill() error {
	idx := w.buf.SortedIndex()
	path := filepath.Join(w.cfg.Dir, fmt.Sprintf("%s-%d.run", w.prefix, w.seq))
	w.seq++
	rw, err := createRun(path, w.tag)
	if err != nil {
		return err
	}
	for _, i := range idx {
		if err := rw.add(w.buf.Key(int(i)), w.buf.Value(int(i))); err != nil {
			rw.abort()
			return err
		}
	}
	rf, err := rw.finish()
	if err != nil {
		return err
	}
	w.runs = append(w.runs, rf)
	w.cfg.Stats.addResident(-w.resident())
	if s := w.cfg.Stats; s != nil {
		s.RunsWritten.Add(1)
		s.SpillBytes.Add(rf.PayloadBytes)
	}
	w.cfg.Metrics.Count("mr.spill.runs", 1)
	w.cfg.Metrics.Count("mr.spill.bytes", rf.PayloadBytes)
	w.buf.Reset()
	return nil
}

// Finish flushes any buffered records as a final run and returns every
// run written, in arrival order. A writer that never received a record
// returns nil. The writer must not be reused afterwards.
func (w *Writer) Finish() ([]RunFile, error) {
	if w.buf.Len() > 0 {
		if err := w.spill(); err != nil {
			return nil, err
		}
	}
	w.buf = frame.Arena{}
	return w.runs, nil
}

// Discard drops buffered state and deletes any runs already written; used
// on error paths.
func (w *Writer) Discard() {
	w.cfg.Stats.addResident(-w.resident())
	w.buf = frame.Arena{}
	removeRuns(w.runs)
	w.runs = nil
}
