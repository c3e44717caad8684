package mrskyline

// This file is the public face of internal/maintain: incrementally
// maintained skylines for the serving layer. A MaintainedSkyline keeps
// the grid, per-cell local skylines and the pruning bitstring resident so
// a delta batch costs work proportional to the cells it touches, while
// Compute-style queries rebuild all of it per call. Handles come from
// Service.OpenMaintained and Service.RestoreMaintained, which publish
// maintenance counters into the service's metrics registry.

import (
	"encoding/json"
	"fmt"

	"mrskyline/internal/maintain"
	"mrskyline/internal/obs"
	"mrskyline/internal/tuple"
	"mrskyline/internal/wal"
)

// MaintainOptions shapes Service.OpenMaintained. The zero value derives
// everything from the seed data.
type MaintainOptions struct {
	// Dim fixes the dimensionality; required only when the seed data is
	// empty (otherwise it must match the data, 0 = derive).
	Dim int
	// PPD fixes the grid's partitions-per-dimension; 0 chooses it with the
	// paper's Equation 4 from the seed cardinality. The grid is fixed for
	// the handle's lifetime.
	PPD int
	// Maximize flips dimensions to "higher is better", exactly as in
	// Options.Maximize. The preference is fixed at open time.
	Maximize []bool
	// WindowSize, when positive, maintains the skyline of a sliding window
	// over the insert stream: once the resident set reaches WindowSize,
	// each insert evicts the oldest tuple. Sliding handles are insert-only.
	WindowSize int

	// DataDir, when non-empty, makes the handle durable: every delta batch
	// is appended to a write-ahead log under DataDir before it is applied,
	// background checkpoints bound replay length, and RestoreMaintained
	// reopens the directory to the exact pre-crash state after a restart.
	// The directory is created if missing, must be empty on first open, and
	// must not be shared between handles. Empty keeps the handle
	// memory-only, exactly as before. The log's fsync and checkpoint policy
	// is the Service's (ServiceConfig.WALSync and friends).
	DataDir string
}

// ErrNoDurableState is wrapped by RestoreMaintained when the DataDir
// holds no durable state (no checkpoint and no log). Test with errors.Is.
var ErrNoDurableState = wal.ErrNoState

// DeltaOp names a delta operation in wire form.
type DeltaOp string

// The delta operations.
const (
	DeltaInsert DeltaOp = "insert"
	DeltaDelete DeltaOp = "delete"
)

// Delta is one insert or delete against a maintained skyline.
type Delta struct {
	Op  DeltaOp   `json:"op"`
	Row []float64 `json:"row"`
}

// DeltaResult summarizes one ApplyDeltas batch.
type DeltaResult struct {
	// Inserted and Deleted count applied operations; Missing counts
	// deletes whose tuple was not resident (no-ops, not errors); Evicted
	// counts sliding-window evictions triggered by inserts.
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	Missing  int `json:"missing"`
	Evicted  int `json:"evicted"`
	// Gen and SkylineSize describe the snapshot published after the batch.
	Gen         uint64 `json:"gen"`
	SkylineSize int    `json:"skyline_size"`
}

// MaintainedSnapshot is one consistent published state of a maintained
// skyline. Rows are copies in the caller's orientation; the caller owns
// them.
type MaintainedSnapshot struct {
	Gen     uint64      `json:"gen"`
	Skyline [][]float64 `json:"skyline"`
}

// MaintainStats reports a maintained handle's cumulative work.
type MaintainStats struct {
	Inserts           uint64 `json:"inserts"`
	Deletes           uint64 `json:"deletes"`
	DeleteMisses      uint64 `json:"delete_misses"`
	Evictions         uint64 `json:"evictions"`
	CellRebuilds      uint64 `json:"cell_rebuilds"`
	ContribRecomputes uint64 `json:"contrib_recomputes"`
	DominanceTests    int64  `json:"dominance_tests"`
	Size              int    `json:"size"`
	Cells             int    `json:"cells"`
	Surviving         int    `json:"surviving"`
	Gen               uint64 `json:"gen"`
	SkylineSize       int    `json:"skyline_size"`
}

// MaintainedSkyline is an incrementally maintained skyline handle. All
// methods are safe for concurrent use: ApplyDeltas serializes writers,
// Skyline and Continuous readers never block.
type MaintainedSkyline struct {
	m      *maintain.Maintained
	d      *wal.Durable // nil for memory-only handles
	orient Orientation
	reg    *obs.Registry // the opening Service's
}

// durableMeta is the opaque blob persisted in every snapshot: the pieces
// of MaintainOptions that wal's own snapshot header does not carry.
type durableMeta struct {
	Maximize []bool `json:"maximize,omitempty"`
}

// OpenMaintained seeds a maintained skyline with data. The data is
// copied; later mutations of the caller's rows do not affect the handle.
// With opts.DataDir set the handle is durable — see MaintainOptions — under
// the service's WAL policy (ServiceConfig.WALSync and friends). The
// handle's maintenance counters (maintain.deltas.*, maintain.publishes)
// and, for durable handles, the wal.* durability series land in the
// service's metrics registry alongside the mr.* series, so MetricsJSON and
// /v1/stats cover churn too. The handle itself serves reads
// from resident state and never runs MapReduce jobs on the service's
// cluster.
func (s *Service) OpenMaintained(data [][]float64, opts MaintainOptions) (*MaintainedSkyline, error) {
	reg := s.trace.Metrics()
	dim := opts.Dim // an empty seed's only dimensionality
	if len(data) > 0 {
		dim = len(data[0])
	}
	if dim > 0 {
		if err := checkMaximize(opts.Maximize, dim); err != nil {
			return nil, err
		}
	}
	orient := NewOrientation(opts.Maximize)
	seed := make(tuple.List, len(data))
	for i, row := range data {
		seed[i] = orient.copyOf(row)
	}
	cfg := maintain.Config{
		Dim:       opts.Dim,
		PPD:       opts.PPD,
		WindowCap: opts.WindowSize,
	}
	if opts.DataDir == "" {
		m, err := maintain.New(seed, cfg)
		if err != nil {
			return nil, fmt.Errorf("mrskyline: %w", err)
		}
		return &MaintainedSkyline{m: m, orient: orient, reg: reg}, nil
	}
	meta, err := json.Marshal(durableMeta{Maximize: opts.Maximize})
	if err != nil {
		return nil, fmt.Errorf("mrskyline: %w", err)
	}
	d, err := wal.Create(opts.DataDir, seed, cfg, meta, s.wal)
	if err != nil {
		return nil, fmt.Errorf("mrskyline: %w", err)
	}
	return &MaintainedSkyline{m: d.Maintained(), d: d, orient: orient, reg: reg}, nil
}

// RestoreMaintained reopens a durable maintained skyline from
// opts.DataDir: the newest intact checkpoint is loaded, the write-ahead
// log replayed, and the handle resumes at the exact generation and
// skyline bytes of the last acknowledged batch (per the sync policy the
// directory was written under). Grid shape, sliding-window size and
// orientation come from the persisted state; opts.Dim, PPD, WindowSize
// and Maximize are ignored. Restoring a directory that holds no durable
// state returns an error wrapping ErrNoDurableState. Recovery metrics
// (wal.recovery.ns, wal.replay.*) land in the service's registry.
func (s *Service) RestoreMaintained(opts MaintainOptions) (*MaintainedSkyline, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("mrskyline: RestoreMaintained needs DataDir")
	}
	d, err := wal.Recover(opts.DataDir, s.wal)
	if err != nil {
		return nil, fmt.Errorf("mrskyline: %w", err)
	}
	var meta durableMeta
	if raw := d.Meta(); len(raw) > 0 {
		if err := json.Unmarshal(raw, &meta); err != nil {
			d.Abandon()
			return nil, fmt.Errorf("mrskyline: corrupt handle metadata in %s: %w", opts.DataDir, err)
		}
	}
	return &MaintainedSkyline{m: d.Maintained(), d: d, orient: NewOrientation(meta.Maximize), reg: s.trace.Metrics()}, nil
}

// ApplyDeltas applies a batch of inserts and deletes atomically and
// publishes exactly one new snapshot: the whole batch is validated first
// (a NaN or ragged row rejects the batch with no state change), and
// concurrent readers observe either the pre- or post-batch skyline.
func (h *MaintainedSkyline) ApplyDeltas(deltas []Delta) (DeltaResult, error) {
	batch := make([]maintain.Delta, len(deltas))
	for i, d := range deltas {
		switch d.Op {
		case DeltaInsert:
			batch[i].Op = maintain.OpInsert
		case DeltaDelete:
			batch[i].Op = maintain.OpDelete
		default:
			return DeltaResult{}, fmt.Errorf("mrskyline: unknown delta op %q (delta %d)", d.Op, i)
		}
		batch[i].Row = h.orient.copyOf(d.Row)
	}
	var res maintain.ApplyResult
	var err error
	if h.d != nil {
		res, err = h.d.Apply(batch) // logged (and fsynced per policy) before applying
	} else {
		res, err = h.m.Apply(batch)
	}
	if err != nil {
		return DeltaResult{}, fmt.Errorf("mrskyline: %w", err)
	}
	h.reg.Count("maintain.deltas.inserted", int64(res.Inserted))
	h.reg.Count("maintain.deltas.deleted", int64(res.Deleted))
	h.reg.Count("maintain.deltas.missing", int64(res.Missing))
	h.reg.Count("maintain.deltas.evicted", int64(res.Evicted))
	h.reg.Count("maintain.publishes", 1)
	return DeltaResult{
		Inserted:    res.Inserted,
		Deleted:     res.Deleted,
		Missing:     res.Missing,
		Evicted:     res.Evicted,
		Gen:         res.Gen,
		SkylineSize: res.SkylineSize,
	}, nil
}

// Skyline returns the latest published skyline. It never blocks, even
// while a delta batch is being applied.
func (h *MaintainedSkyline) Skyline() *MaintainedSnapshot {
	return h.snapshotRows(h.m.Snapshot())
}

// snapshotRows copies a published snapshot out in the caller's
// orientation, every row in one block.
func (h *MaintainedSkyline) snapshotRows(s *maintain.Snapshot) *MaintainedSnapshot {
	out := &MaintainedSnapshot{Gen: s.Gen, Skyline: make([][]float64, len(s.Skyline))}
	if len(s.Skyline) == 0 {
		return out
	}
	d := h.m.Dim()
	flat := make([]float64, len(s.Skyline)*d)
	for i, t := range s.Skyline {
		row := flat[i*d : (i+1)*d : (i+1)*d] // an append cannot reach the next row
		copy(row, t)
		h.orient.applyInPlace(row)
		out.Skyline[i] = row
	}
	return out
}

// Rows returns a copy of every resident tuple in the caller's
// orientation — the dataset a full recompute would run over. The copies
// share one block, and appending to one row cannot reach the next.
func (h *MaintainedSkyline) Rows() [][]float64 {
	rows := h.m.Rows() // fresh copies, oriented here in place
	out := make([][]float64, len(rows))
	for i, t := range rows {
		h.orient.applyInPlace(t)
		out[i] = t
	}
	return out
}

// Size returns the number of resident tuples.
func (h *MaintainedSkyline) Size() int { return h.m.Size() }

// Generation returns the latest published generation. Generations start
// at 1 (the seed publish) and increase by one per ApplyDeltas batch.
func (h *MaintainedSkyline) Generation() uint64 { return h.m.Generation() }

// Stats returns the handle's cumulative maintenance work.
func (h *MaintainedSkyline) Stats() MaintainStats {
	st := h.m.Stats()
	return MaintainStats{
		Inserts:           st.Inserts,
		Deletes:           st.Deletes,
		DeleteMisses:      st.DeleteMisses,
		Evictions:         st.Evictions,
		CellRebuilds:      st.CellRebuilds,
		ContribRecomputes: st.ContribRecomputes,
		DominanceTests:    st.DominanceTests,
		Size:              st.Size,
		Cells:             st.Cells,
		Surviving:         st.Surviving,
		Gen:               st.Gen,
		SkylineSize:       st.SkylineSize,
	}
}

// Durable reports whether the handle persists its state to a DataDir.
func (h *MaintainedSkyline) Durable() bool { return h.d != nil }

// Checkpoint forces a durable handle to write a checkpoint now, bounding
// the next recovery's replay to batches applied after it. It is a no-op
// on memory-only handles. Automatic checkpoints
// (ServiceConfig.WALCheckpointEvery) make calling this optional.
func (h *MaintainedSkyline) Checkpoint() error {
	if h.d == nil {
		return nil
	}
	return h.d.Checkpoint()
}

// Close writes a final checkpoint and releases the handle's files. On
// memory-only handles it is a no-op. The handle must not be used after
// Close; Close is idempotent.
func (h *MaintainedSkyline) Close() error {
	if h.d == nil {
		return nil
	}
	return h.d.Close()
}

// Continuous opens a continuous query over the maintained skyline: a
// cursor that reports the result set only when it changed since the last
// poll. Each cursor tracks its own position; any number may run
// concurrently with writers.
func (h *MaintainedSkyline) Continuous() *ContinuousQuery {
	return &ContinuousQuery{h: h}
}

// ContinuousQuery is a generation cursor over a MaintainedSkyline. Not
// safe for concurrent use of the same cursor; open one per consumer.
type ContinuousQuery struct {
	h       *MaintainedSkyline
	lastGen uint64
}

// Poll returns the latest skyline and true when its generation advanced
// past the cursor (the first Poll always reports the seed state), or
// (nil, false) when nothing changed — the cheap no-change path copies no
// rows. Poll never blocks.
func (c *ContinuousQuery) Poll() (*MaintainedSnapshot, bool) {
	s := c.h.m.Snapshot()
	if s.Gen == c.lastGen {
		return nil, false
	}
	c.lastGen = s.Gen
	return c.h.snapshotRows(s), true
}
