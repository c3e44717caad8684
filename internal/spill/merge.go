package spill

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"mrskyline/internal/frame"
)

// bufSize derives the per-reader buffer size from the budget: a merge
// holds fanIn read buffers plus one write buffer, and together they
// should stay a modest fraction of the budget. Clamped to [4 KiB, 1 MiB].
func (c *Config) bufSize() int {
	f := c.fanIn()
	b := c.Budget / int64(4*(f+1))
	if b < 4<<10 {
		b = 4 << 10
	}
	if b > 1<<20 {
		b = 1 << 20
	}
	return int(b)
}

// Merger streams the k-way merge of sorted runs: records come out in
// (key bytes, run index) order, which — for runs listed in arrival order —
// is exactly the (key, arrival) order of the in-memory shuffle sort.
type Merger struct {
	cfg     *Config
	readers []*RunReader
	keys    [][]byte // current head record per open reader
	vals    [][]byte
	advance int // reader whose head was handed out by the last Next
}

// NewMerger opens every run. The run list must not exceed the config's
// fan-in; reduce longer lists with MergeTree first.
func NewMerger(cfg *Config, runs []RunFile) (*Merger, error) {
	if len(runs) > cfg.fanIn() {
		return nil, fmt.Errorf("spill: merging %d runs exceeds fan-in %d (run MergeTree first)", len(runs), cfg.fanIn())
	}
	m := &Merger{
		cfg:     cfg,
		readers: make([]*RunReader, len(runs)),
		keys:    make([][]byte, len(runs)),
		vals:    make([][]byte, len(runs)),
		advance: -1,
	}
	bs := cfg.bufSize()
	for i, rf := range runs {
		r, err := OpenRun(rf, bs)
		if err != nil {
			m.Close()
			return nil, err
		}
		m.readers[i] = r
		cfg.Stats.addResident(int64(bs))
		if err := m.pull(i); err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

// pull advances reader i to its next record.
func (m *Merger) pull(i int) error {
	k, v, err := m.readers[i].Next()
	if err == io.EOF {
		m.drop(i)
		return nil
	}
	m.keys[i], m.vals[i] = k, v
	return err
}

// drop closes reader i, drained or abandoned. Its nil reader marks it so:
// a nil key is a record like any other.
func (m *Merger) drop(i int) {
	m.readers[i].Close()
	m.readers[i], m.keys[i], m.vals[i] = nil, nil, nil
	m.cfg.Stats.addResident(-int64(m.cfg.bufSize()))
}

// Next returns the smallest head record. The slices are valid until the
// following Next call. io.EOF signals a clean end of every run.
func (m *Merger) Next() (key, value []byte, err error) {
	if m.advance >= 0 {
		if err := m.pull(m.advance); err != nil {
			return nil, nil, err
		}
		m.advance = -1
	}
	best := -1
	for i, k := range m.keys {
		if m.readers[i] == nil {
			continue
		}
		if best == -1 || bytes.Compare(k, m.keys[best]) < 0 {
			best = i
		}
	}
	if best == -1 {
		return nil, nil, io.EOF
	}
	m.advance = best
	return m.keys[best], m.vals[best], nil
}

// Close releases every reader. Safe after partial construction and after
// EOF.
func (m *Merger) Close() {
	for i, r := range m.readers {
		if r != nil {
			m.drop(i)
		}
	}
}

// MergeTree reduces a run list to at most fan-in F runs by repeated
// contiguous F-way merge rounds, each a single streaming pass writing its
// output as a new run into dir (named prefix-r<round>-<group>.run,
// tagged -1). With R input runs the tree completes in ⌈log_F R⌉ − 1
// rounds, after which one final F-way merge can stream straight into the
// consumer — the round-efficient shape of MapReduce merge sorting.
//
// It returns the final run list plus every intermediate file created
// (temps), which the caller removes once the final merge has been
// consumed. Input runs are never deleted: they may be the engine's
// re-execution source of truth.
func MergeTree(cfg *Config, dir, prefix string, runs []RunFile) (final []RunFile, temps []string, err error) {
	f := cfg.fanIn()
	round := 0
	for len(runs) > f {
		var next []RunFile
		for lo := 0; lo < len(runs); lo += f {
			hi := lo + f
			if hi > len(runs) {
				hi = len(runs)
			}
			if hi-lo == 1 {
				// A lone trailing run passes through unchanged; its position
				// keeps the arrival order intact.
				next = append(next, runs[lo])
				continue
			}
			path := filepath.Join(dir, prefix+"-r"+strconv.Itoa(round)+"-"+strconv.Itoa(lo/f)+".run")
			rf, merr := mergeOnce(cfg, path, runs[lo:hi])
			if merr != nil {
				removePaths(temps)
				return nil, nil, merr
			}
			temps = append(temps, path)
			next = append(next, rf)
		}
		runs = next
		round++
		if s := cfg.Stats; s != nil {
			s.MergeRounds.Add(1)
		}
		cfg.Metrics.Count("mr.spill.merge.rounds", 1)
	}
	cfg.Metrics.Gauge("mr.spill.merge.fanin", int64(f))
	return runs, temps, nil
}

// mergeOnce merges one contiguous group of runs into a single new run.
func mergeOnce(cfg *Config, path string, group []RunFile) (RunFile, error) {
	m, err := NewMerger(cfg, group)
	if err != nil {
		return RunFile{}, err
	}
	defer m.Close()
	rw, err := createRun(path, -1)
	if err != nil {
		return RunFile{}, err
	}
	cfg.Stats.addResident(int64(cfg.bufSize()))
	defer cfg.Stats.addResident(-int64(cfg.bufSize()))
	for {
		k, v, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			rw.abort()
			return RunFile{}, err
		}
		if err := rw.add(k, v); err != nil {
			rw.abort()
			return RunFile{}, err
		}
	}
	rf, err := rw.finish()
	if err != nil {
		return RunFile{}, err
	}
	if s := cfg.Stats; s != nil {
		s.RunsWritten.Add(1)
		s.SpillBytes.Add(rf.PayloadBytes)
	}
	cfg.Metrics.Count("mr.spill.runs", 1)
	cfg.Metrics.Count("mr.spill.bytes", rf.PayloadBytes)
	return rf, nil
}

// Groups streams a merged run list as per-key groups in key order: the
// reduce-side view of a spilled shuffle. Each group's values live in one
// arena reused across groups, so resident memory is bounded by the merge
// buffers plus the largest single group.
type Groups struct {
	m    *Merger
	done bool

	// Pending first record of the next group (read-ahead past a key
	// boundary); owned copies in next{Key,Val}Buf.
	pending bool
	nextKey []byte
	nextVal []byte

	key  []byte
	vals frame.Arena // the current group's values, keyless
}

// NewGroups opens the group stream over runs (at most fan-in of them).
func NewGroups(cfg *Config, runs []RunFile) (*Groups, error) {
	m, err := NewMerger(cfg, runs)
	if err != nil {
		return nil, err
	}
	return &Groups{m: m}, nil
}

// Next returns the next key group; a zero-length key or value is nil, as
// it is from a resident arena. Returned slices are valid until the
// following Next call; ok is false when the stream is cleanly drained.
func (g *Groups) Next() (key []byte, vals [][]byte, ok bool, err error) {
	if g.done {
		return nil, nil, false, nil
	}
	g.vals.Reset()
	if !g.pending {
		k, v, err := g.m.Next()
		if err == io.EOF {
			g.done = true
			g.m.Close()
			return nil, nil, false, nil
		}
		if err != nil {
			g.m.Close()
			return nil, nil, false, err
		}
		g.nextKey = append(g.nextKey[:0], k...)
		g.nextVal = append(g.nextVal[:0], v...)
		g.pending = true
	}
	g.key = append(g.key[:0], g.nextKey...)
	g.vals.Add(nil, g.nextVal)
	g.pending = false
	for {
		k, v, err := g.m.Next()
		if err == io.EOF {
			g.done = true
			g.m.Close()
			break
		}
		if err != nil {
			g.m.Close()
			return nil, nil, false, err
		}
		if !bytes.Equal(k, g.key) {
			g.nextKey = append(g.nextKey[:0], k...)
			g.nextVal = append(g.nextVal[:0], v...)
			g.pending = true
			break
		}
		g.vals.Add(nil, v)
	}
	vals = make([][]byte, g.vals.Len())
	for i := range vals {
		vals[i] = g.vals.Value(i)
	}
	if len(g.key) == 0 {
		return nil, vals, true, nil
	}
	return g.key, vals, true, nil
}

// Close releases the underlying merger; safe to call at any point.
func (g *Groups) Close() {
	if !g.done {
		g.m.Close()
		g.done = true
	}
}

// removeRuns deletes run files, ignoring errors (best-effort cleanup).
func removeRuns(runs []RunFile) {
	for _, r := range runs {
		os.Remove(r.Path)
	}
}

// removePaths deletes files, ignoring errors.
func removePaths(paths []string) {
	for _, p := range paths {
		os.Remove(p)
	}
}
