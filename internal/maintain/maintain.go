// Package maintain keeps a skyline incrementally up to date under a
// stream of inserts and deletes, instead of recomputing it from scratch
// per query the way the MapReduce pipeline does.
//
// The structure is the paper's grid partitioning kept resident: every
// tuple lives in its grid cell (Section 3), each non-empty cell holds the
// local skyline of its members on the columnar window kernel
// (internal/skyline/window), and an occupancy bitstring plus the pruning
// sweep of Equation 2 marks the surviving cells — exactly the state the
// mappers and reducers of MR-GPSRS/GPMRS rebuild on every job. Keeping it
// resident localizes the effect of a delta:
//
//   - Insert locates the target cell, dominance-tests the tuple against
//     that cell's local skyline only (Algorithm 4), and sets the cell's
//     occupancy bit. No other cell's window is touched.
//   - Delete removes the tuple from its cell; only when the tuple was part
//     of the cell's local skyline is that one cell's window rebuilt from
//     its members. Cells the deleted cell's bitstring bit had pruned
//     reappear through the survivor re-derivation, with their local
//     skylines already maintained — no recompute outside the affected
//     cell.
//
// The global skyline is assembled from per-cell contributions: a
// surviving cell's contribution is its local skyline filtered by the
// windows of the surviving cells in its anti-dominating region
// (Algorithm 5), and a contribution is only recomputed when the cell — or
// a cell in its ADR — changed since the last batch. Local skylines are
// maintained for pruned cells too, which is what makes delete-repair
// cheap: un-pruning is a bitstring flip, not a recompute.
//
// Writers serialize on an internal mutex; every mutation batch publishes
// an immutable snapshot through an atomic pointer with a monotonically
// increasing generation, so concurrent readers get a consistent skyline
// without ever blocking (or being blocked by) writers.
//
// The grid's domain and granularity are fixed at construction. Deltas
// outside the seed domain clamp into boundary cells (see grid.Locate),
// which degrades pruning quality but never correctness.
package maintain

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mrskyline/internal/bitstring"
	"mrskyline/internal/grid"
	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// Config shapes a Maintained skyline. The zero value derives everything
// from the seed data.
type Config struct {
	// Dim fixes the dimensionality. Required when the seed data is empty;
	// otherwise it must match the data (0 derives it from the data).
	Dim int
	// PPD fixes the grid's partitions-per-dimension. 0 chooses it with the
	// paper's Equation 4 from the seed cardinality (minimum 2). The grid is
	// fixed for the lifetime of the structure, so a workload expected to
	// grow far beyond its seed should set PPD for the target size.
	PPD int
	// Lo and Hi fix the grid domain ([lo, hi) per dimension). Nil derives
	// them from the seed data (the unit box when the seed is empty).
	// Out-of-domain deltas clamp into boundary cells.
	Lo, Hi []float64
	// WindowCap, when positive, turns the maintained set into a sliding
	// window: once Size reaches WindowCap, each insert first evicts the
	// oldest resident tuple. Sliding windows are insert-only — explicit
	// deletes are rejected, because eviction order is the only delete.
	WindowCap int
	// SeedGen, when positive, is the generation assigned to the seed
	// publish (0 means 1, the fresh-build default). Durable recovery uses
	// it to resume a handle's generation sequence from a checkpoint: a
	// snapshot taken at generation G reseeds with SeedGen G, so replayed
	// delta batches continue at G+1 exactly as they did before the crash.
	SeedGen uint64
}

// Op is a delta operation.
type Op uint8

// The delta operations.
const (
	OpInsert Op = iota
	OpDelete
)

// String implements fmt.Stringer for Op.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Delta is one insert or delete.
type Delta struct {
	Op  Op
	Row tuple.Tuple
}

// ApplyResult summarizes one delta batch.
type ApplyResult struct {
	// Inserted and Deleted count applied operations; Missing counts
	// deletes whose tuple was not resident (they are no-ops, not errors).
	// Evicted counts sliding-window evictions triggered by inserts.
	Inserted, Deleted, Missing, Evicted int
	// Gen and SkylineSize describe the snapshot published after the batch.
	Gen         uint64
	SkylineSize int
}

// Snapshot is one published skyline state. It is immutable: readers must
// not modify the slice or its tuples, and successive snapshots share
// tuple storage.
type Snapshot struct {
	// Gen increases by one per published mutation batch.
	Gen uint64
	// Skyline holds the skyline tuples in deterministic order: ascending
	// grid-cell index, window order within a cell. It is byte-identical to
	// what a full rebuild over the current residents produces.
	Skyline tuple.List
}

// Stats is a point-in-time view of the maintainer's work counters.
type Stats struct {
	// Inserts, Deletes, DeleteMisses and Evictions count applied deltas.
	Inserts, Deletes, DeleteMisses, Evictions uint64
	// CellRebuilds counts delete-repairs: one cell's local skyline rebuilt
	// from its members because the deleted tuple was part of it.
	CellRebuilds uint64
	// ContribRecomputes counts per-cell contribution refreshes during
	// publishes — the incremental unit of global-skyline work.
	ContribRecomputes uint64
	// DominanceTests counts tuple-pair classifications across all
	// maintenance work (the same unit the batch pipeline reports).
	DominanceTests int64
	// Size, Cells and Surviving describe the resident state: tuples held,
	// non-empty grid cells, and cells surviving bitstring pruning.
	Size, Cells, Surviving int
	// Gen and SkylineSize describe the latest published snapshot.
	Gen         uint64
	SkylineSize int
}

// member is one resident tuple: its value plus a global arrival sequence
// number (the sliding-window eviction order).
type member struct {
	t   tuple.Tuple
	seq uint64
}

// cell is one non-empty grid partition: every resident member in arrival
// order, plus the local skyline of those members (the window a mapper of
// Algorithm 3 would hold for this partition).
type cell struct {
	members []member
	sky     *window.Window
}

// rebuild reconstructs the cell's local skyline from its members in
// arrival order — exactly the BNL insertion a fresh build performs, so
// incremental and rebuilt windows are indistinguishable.
func (c *cell) rebuild(cnt *window.Count) {
	c.sky.Reset()
	for _, mb := range c.members {
		c.sky.Insert(mb.t, cnt)
	}
}

// fifoRef locates one resident tuple for sliding-window eviction.
type fifoRef struct {
	cellIdx int
	seq     uint64
}

// Maintained is an incrementally maintained skyline. Create one with New.
// All methods are safe for concurrent use; mutations serialize on an
// internal mutex while Snapshot stays lock-free.
type Maintained struct {
	g   *grid.Grid
	cap int // sliding-window capacity (0 = unbounded)

	mu     sync.Mutex
	cells  map[int]*cell
	occ    *bitstring.Bitstring // occupancy: bit i ⟺ cell i non-empty
	pruned *bitstring.Bitstring // survivors as of the last publish
	// contrib caches, per surviving cell, its slice of the global skyline:
	// the cell's local skyline filtered by surviving ADR windows.
	contrib map[int]tuple.List
	// dirty marks cells whose local skyline (or existence) changed since
	// the last publish.
	dirty map[int]struct{}
	seq   uint64
	fifo  []fifoRef // arrival order; WindowCap > 0 only
	head  int       // fifo's logical start (popped prefix)
	size  int
	gen   uint64
	cnt   window.Count
	stats Stats

	snap atomic.Pointer[Snapshot]
}

// New builds a maintained skyline seeded with data, which the structure
// takes ownership of (callers must not modify the rows afterwards; pass a
// copy to retain them). Seed rows are validated like every other entry
// point: ragged rows and non-finite values are errors.
func New(data tuple.List, cfg Config) (*Maintained, error) {
	if err := data.Validate(); err != nil {
		return nil, fmt.Errorf("maintain: %w", err)
	}
	d := cfg.Dim
	if len(data) > 0 {
		if d != 0 && d != data.Dim() {
			return nil, fmt.Errorf("maintain: Config.Dim %d does not match seed dimensionality %d", d, data.Dim())
		}
		d = data.Dim()
	}
	if d <= 0 {
		return nil, fmt.Errorf("maintain: dimensionality required: set Config.Dim or seed with data")
	}
	if cfg.WindowCap < 0 {
		return nil, fmt.Errorf("maintain: WindowCap must be ≥ 0, got %d", cfg.WindowCap)
	}
	if cfg.WindowCap > 0 && len(data) > cfg.WindowCap {
		return nil, fmt.Errorf("maintain: seed of %d rows exceeds WindowCap %d", len(data), cfg.WindowCap)
	}
	lo, hi, err := domain(d, cfg, data)
	if err != nil {
		return nil, err
	}
	ppd := cfg.PPD
	if ppd == 0 {
		ppd = grid.PPDForTPP(len(data), d, 0, grid.MaxPartitions)
	}
	g, err := grid.NewWithBounds(d, ppd, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("maintain: %w", err)
	}
	m := &Maintained{
		g:       g,
		cap:     cfg.WindowCap,
		cells:   make(map[int]*cell),
		occ:     bitstring.New(g.NumPartitions()),
		pruned:  bitstring.New(g.NumPartitions()),
		contrib: make(map[int]tuple.List),
		dirty:   make(map[int]struct{}),
	}
	if cfg.SeedGen > 0 {
		m.gen = cfg.SeedGen - 1
	}
	for _, t := range data {
		m.insertLocked(t)
	}
	m.publishLocked()
	return m, nil
}

// domain resolves the grid bounds: explicit config, else the seed data's
// bounding box (widened on constant dimensions), else the unit box.
func domain(d int, cfg Config, data tuple.List) (lo, hi tuple.Tuple, err error) {
	if cfg.Lo != nil || cfg.Hi != nil {
		if len(cfg.Lo) != d || len(cfg.Hi) != d {
			return nil, nil, fmt.Errorf("maintain: Lo/Hi dimensionality %d/%d does not match d=%d", len(cfg.Lo), len(cfg.Hi), d)
		}
		return tuple.Tuple(cfg.Lo).Clone(), tuple.Tuple(cfg.Hi).Clone(), nil
	}
	if len(data) > 0 {
		lo, hi = grid.DataBounds(data)
		return lo, hi, nil
	}
	lo = make(tuple.Tuple, d)
	hi = make(tuple.Tuple, d)
	for k := range hi {
		hi[k] = 1
	}
	return lo, hi, nil
}

// Dim returns the dimensionality.
func (m *Maintained) Dim() int { return m.g.Dim() }

// PPD returns the grid's partitions-per-dimension.
func (m *Maintained) PPD() int { return m.g.PPD() }

// Size returns the number of resident tuples.
func (m *Maintained) Size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.size
}

// Generation returns the latest published generation.
func (m *Maintained) Generation() uint64 { return m.Snapshot().Gen }

// Snapshot returns the latest published skyline. It never blocks and
// never returns nil; the result is immutable and must not be modified.
func (m *Maintained) Snapshot() *Snapshot { return m.snap.Load() }

// Rows returns a copy of every resident tuple in deterministic order
// (ascending cell index, arrival order within a cell) — the exact multiset
// a full recompute would run over.
func (m *Maintained) Rows() tuple.List {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(tuple.List, 0, m.size)
	for _, idx := range m.sortedCells() {
		for _, mb := range m.cells[idx].members {
			out = append(out, mb.t.Clone())
		}
	}
	return out
}

// ArrivalRows returns a copy of every resident tuple in global arrival
// order (the sequence inserts happened in, deletions excised). Reseeding a
// fresh Maintained with this list reproduces the current state exactly:
// per-cell member order, every cell window, the sliding-window eviction
// order, and therefore the published skyline bytes — which is what makes
// it the canonical checkpoint serialization for durable recovery.
func (m *Maintained) ArrivalRows() tuple.List {
	m.mu.Lock()
	defer m.mu.Unlock()
	type seqRow struct {
		seq uint64
		t   tuple.Tuple
	}
	rows := make([]seqRow, 0, m.size)
	for _, c := range m.cells {
		for _, mb := range c.members {
			rows = append(rows, seqRow{seq: mb.seq, t: mb.t})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].seq < rows[j].seq })
	out := make(tuple.List, len(rows))
	for i, r := range rows {
		out[i] = r.t.Clone()
	}
	return out
}

// Bounds returns copies of the grid domain ([lo, hi) per dimension). A
// checkpoint persists them so recovery rebuilds the identical grid instead
// of re-deriving a different domain from the surviving rows.
func (m *Maintained) Bounds() (lo, hi tuple.Tuple) { return m.g.Lo(), m.g.Hi() }

// WindowCap returns the sliding-window capacity (0 = unbounded).
func (m *Maintained) WindowCap() int { return m.cap }

// Stats returns the maintainer's work counters.
func (m *Maintained) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.DominanceTests = m.cnt.DominanceTests
	st.Size = m.size
	st.Cells = len(m.cells)
	st.Surviving = m.pruned.Count()
	st.Gen = m.gen
	if s := m.snap.Load(); s != nil {
		st.SkylineSize = len(s.Skyline)
	}
	return st
}

// checkRow validates one delta row: the grid's dimensionality and only
// finite values (a NaN row is rejected on insert exactly as Compute
// rejects it — NaN breaks the transitivity the pruning relies on).
func (m *Maintained) checkRow(t tuple.Tuple) error {
	if len(t) != m.g.Dim() {
		return fmt.Errorf("maintain: row dimensionality %d does not match d=%d", len(t), m.g.Dim())
	}
	if !t.Valid() {
		return fmt.Errorf("maintain: non-finite value in row %v", t)
	}
	return nil
}

// Insert adds one tuple (taking ownership of it) and publishes a new
// snapshot. In sliding-window mode it may evict the oldest resident
// tuple first.
func (m *Maintained) Insert(t tuple.Tuple) error {
	_, err := m.Apply([]Delta{{Op: OpInsert, Row: t}})
	return err
}

// Delete removes one resident tuple equal to row and publishes a new
// snapshot. It reports whether a matching tuple was found (deleting an
// absent tuple is a no-op). Sliding windows reject explicit deletes.
func (m *Maintained) Delete(row tuple.Tuple) (bool, error) {
	res, err := m.Apply([]Delta{{Op: OpDelete, Row: row}})
	if err != nil {
		return false, err
	}
	return res.Deleted > 0, nil
}

// CheckBatch validates a delta batch without applying it: row
// dimensionality, finite values, known ops, and the sliding-window
// insert-only rule. It is exactly Apply's up-front validation, exposed so
// a write-ahead log can refuse a doomed batch before appending it.
func (m *Maintained) CheckBatch(deltas []Delta) error {
	for i, d := range deltas {
		if err := m.checkRow(d.Row); err != nil {
			return fmt.Errorf("%w (delta %d)", err, i)
		}
		switch d.Op {
		case OpInsert:
		case OpDelete:
			if m.cap > 0 {
				return fmt.Errorf("maintain: delete rejected (delta %d): sliding windows are insert-only", i)
			}
		default:
			return fmt.Errorf("maintain: unknown op %v (delta %d)", d.Op, i)
		}
	}
	return nil
}

// Apply applies a batch of deltas atomically — the whole batch is
// validated first and either every operation applies or none does — and
// publishes exactly one new snapshot. Readers see either the previous
// snapshot or the post-batch one, never an intermediate state.
func (m *Maintained) Apply(deltas []Delta) (ApplyResult, error) {
	if err := m.CheckBatch(deltas); err != nil {
		return ApplyResult{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var res ApplyResult
	for _, d := range deltas {
		switch d.Op {
		case OpInsert:
			if m.cap > 0 && m.size >= m.cap {
				m.evictOldestLocked()
				res.Evicted++
			}
			m.insertLocked(d.Row)
			res.Inserted++
		case OpDelete:
			if m.deleteLocked(d.Row) {
				res.Deleted++
			} else {
				res.Missing++
			}
		}
	}
	m.stats.Inserts += uint64(res.Inserted)
	m.stats.Deletes += uint64(res.Deleted)
	m.stats.DeleteMisses += uint64(res.Missing)
	m.stats.Evictions += uint64(res.Evicted)
	m.publishLocked()
	res.Gen = m.gen
	res.SkylineSize = len(m.snap.Load().Skyline)
	return res, nil
}

// insertLocked adds t to its cell: append to members, fold into the
// cell's local skyline (Algorithm 4), set the occupancy bit.
func (m *Maintained) insertLocked(t tuple.Tuple) {
	j := m.g.Locate(t)
	c := m.cells[j]
	if c == nil {
		c = &cell{sky: window.New(m.g.Dim())}
		m.cells[j] = c
		m.occ.Set(j)
		m.dirty[j] = struct{}{}
	}
	m.seq++
	c.members = append(c.members, member{t: t, seq: m.seq})
	m.size++
	if m.cap > 0 {
		m.fifo = append(m.fifo, fifoRef{cellIdx: j, seq: m.seq})
	}
	if c.sky.Insert(t, &m.cnt) {
		// The window changed (t entered, possibly evicting): the cell's
		// contribution and those of cells it prunes/filters are stale.
		m.dirty[j] = struct{}{}
	}
}

// deleteLocked removes the first resident member equal to row (arrival
// order), repairing the cell's local skyline only when the removed tuple
// was part of it. Reports whether a match was found.
func (m *Maintained) deleteLocked(row tuple.Tuple) bool {
	j := m.g.Locate(row)
	c := m.cells[j]
	if c == nil {
		return false
	}
	at := -1
	for i, mb := range c.members {
		if mb.t.Equal(row) {
			at = i
			break
		}
	}
	if at < 0 {
		return false
	}
	removed := c.members[at].t
	m.removeMemberLocked(j, c, at, removed)
	return true
}

// removeMemberLocked excises members[at] from cell j and repairs state:
// the cell's window is rebuilt only if the removed tuple was in it, and
// an emptied cell clears its occupancy bit — the cells its bitstring bit
// had pruned resurface at the next publish through PruneInto, their local
// skylines already current.
func (m *Maintained) removeMemberLocked(j int, c *cell, at int, removed tuple.Tuple) {
	c.members = append(c.members[:at], c.members[at+1:]...)
	m.size--
	if len(c.members) == 0 {
		delete(m.cells, j)
		m.occ.Clear(j)
		m.dirty[j] = struct{}{}
		return
	}
	if c.sky.Contains(removed) {
		c.rebuild(&m.cnt)
		m.stats.CellRebuilds++
		m.dirty[j] = struct{}{}
	}
}

// evictOldestLocked removes the oldest resident tuple (sliding-window
// mode). The fifo head always names a live member: eviction is the only
// removal path when WindowCap > 0.
func (m *Maintained) evictOldestLocked() {
	ref := m.fifo[m.head]
	m.head++
	if m.head > len(m.fifo)/2 && m.head > 64 {
		m.fifo = append(m.fifo[:0], m.fifo[m.head:]...)
		m.head = 0
	}
	c := m.cells[ref.cellIdx]
	for i, mb := range c.members {
		if mb.seq == ref.seq {
			m.removeMemberLocked(ref.cellIdx, c, i, mb.t)
			return
		}
	}
	panic(fmt.Sprintf("maintain: fifo references missing member seq %d in cell %d", ref.seq, ref.cellIdx))
}

// sortedCells returns the non-empty cell indexes ascending.
func (m *Maintained) sortedCells() []int {
	idx := make([]int, 0, len(m.cells))
	for j := range m.cells {
		idx = append(idx, j)
	}
	sort.Ints(idx)
	return idx
}

// publishLocked re-derives survivors, refreshes the stale per-cell
// contributions, and publishes the next snapshot.
//
// A contribution is stale when its cell changed (window content, creation,
// removal, or survival flip) or when any changed cell lies in its ADR —
// changed cells can start or stop filtering it. Everything else is reused
// from the previous publish, which is what keeps a batch touching one
// cell from paying for the whole grid.
func (m *Maintained) publishLocked() {
	newPruned := bitstring.New(m.g.NumPartitions())
	m.g.PruneInto(newPruned, m.occ)

	// changed = dirty cells ∪ cells whose survival bit flipped. A flip can
	// only happen at a cell that is non-empty now (bit may have set) or was
	// removed this batch (already in dirty).
	changed := make([]int, 0, len(m.dirty))
	seen := make(map[int]struct{}, len(m.dirty))
	for j := range m.dirty {
		changed = append(changed, j)
		seen[j] = struct{}{}
	}
	for j := range m.cells {
		if _, dup := seen[j]; !dup && newPruned.Get(j) != m.pruned.Get(j) {
			changed = append(changed, j)
			seen[j] = struct{}{}
		}
	}
	sort.Ints(changed)

	d := m.g.Dim()
	changedCoords := make([][]int, len(changed))
	for i, j := range changed {
		changedCoords[i] = m.g.Coords(j, make([]int, d))
	}

	// Drop contributions of cells that no longer survive.
	for j := range m.contrib {
		if j >= 0 && (!newPruned.Get(j) || m.cells[j] == nil) {
			delete(m.contrib, j)
		}
	}

	active := m.sortedCells()
	coords, adrDims := make([]int, d), make([]int, 0, d)
	for _, k := range active {
		if !newPruned.Get(k) {
			continue
		}
		_, cached := m.contrib[k]
		stale := !cached
		if !stale {
			if _, ok := seen[k]; ok {
				stale = true
			}
		}
		if !stale {
			m.g.Coords(k, coords)
			for _, cc := range changedCoords {
				if inWeakADR(cc, coords) {
					stale = true
					break
				}
			}
		}
		if stale {
			m.contrib[k] = m.contribution(k, active, newPruned, adrDims)
			m.stats.ContribRecomputes++
		}
	}

	total := 0
	for _, k := range active {
		total += len(m.contrib[k])
	}
	sky := make(tuple.List, 0, total)
	for _, k := range active {
		sky = append(sky, m.contrib[k]...)
	}

	m.pruned = newPruned
	for j := range m.dirty {
		delete(m.dirty, j)
	}
	m.gen++
	m.snap.Store(&Snapshot{Gen: m.gen, Skyline: sky})
}

// inWeakADR reports whether cell coordinates c are ≤ k on every dimension
// — c ∈ ADR(k) ∪ {k}, the condition for a change at c to affect k's
// contribution.
func inWeakADR(c, k []int) bool {
	for i := range c {
		if c[i] > k[i] {
			return false
		}
	}
	return true
}

// contribution computes surviving cell k's slice of the global skyline:
// its local skyline filtered by the windows of every surviving cell in
// its ADR (Algorithm 5 restricted to k) on every dimension. active must be
// ascending; scratch, with room for d entries, keeps the ADR test from
// allocating.
func (m *Maintained) contribution(k int, active []int, pruned *bitstring.Bitstring, scratch []int) tuple.List {
	ck := m.cells[k]
	var filters []*window.Window
	for _, j := range active {
		if _, in := m.g.ADRDims(j, k, scratch[:0]); in && pruned.Get(j) {
			filters = append(filters, m.cells[j].sky)
		}
	}
	rows := ck.sky.Rows()
	out := make(tuple.List, 0, len(rows))
next:
	for _, t := range rows {
		for _, f := range filters {
			if f.Dominated(t, &m.cnt) {
				continue next
			}
		}
		out = append(out, t)
	}
	return out
}
