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
//   - Delete finds the first equal member by a fingerprint kept in its
//     key, reading only a matching member's row. Only when the tuple was on
//     the cell's local skyline is the window repaired: every member outside
//     it is dominated by a window row, and unless that row is the deleted
//     one it still is, so BNL over the window's other rows and the members
//     the deleted row dominates, in arrival order, gives the window a replay
//     of every member would. Cells the deleted cell's bitstring bit had
//     pruned reappear through the survivor re-derivation, with their local
//     skylines already maintained.
//
// The global skyline is assembled from per-cell contributions: a
// surviving cell's contribution is its local skyline filtered by the
// windows of the surviving cells in its anti-dominating region
// (Algorithm 5). A publish refreshes a contribution only when a row entered
// or left a window of the cell's weak ADR, and only from those rows: E, the
// rows that entered a window this batch (by insert or repair) and are still
// in it, and D, the window rows the batch deleted. A row the cell published
// stays unless an E row of its ADR dominates it; a row it held back stays
// held back unless a D row of its ADR dominates it; its own E rows, the rows
// a D row dominates, and every row when nothing is cached take the full test
// against the ADR windows. That is exact by transitivity: a row evicted from
// a window is dominated by the row that evicted it, and while a cell
// survives so does every occupied cell of its ADR (a cell that pruned one
// would prune it too), so a dominator can only disappear by deletion, which
// D covers. Local skylines are maintained for pruned cells too, which is
// what makes delete-repair cheap: un-pruning is a bitstring flip, not a
// recompute.
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
	"math"
	"slices"
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

// member is one resident tuple: its value, and a key with the global arrival
// sequence number (the sliding-window eviction order) above a fingerprint of
// the value. Keys ascend with arrival; a delete reads only matching rows.
type member struct {
	t   tuple.Tuple
	key uint64
}

const fpBits = 16 // a member key's fingerprint bits; its sequence number has 48

// fingerprint hashes t's values to fpBits bits. Rows that Tuple.Equal calls
// equal hash alike: v+0 turns -0 into +0.
func fingerprint(t tuple.Tuple) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range t {
		h = (h ^ math.Float64bits(v+0)) * 1099511628211
	}
	return h >> (64 - fpBits)
}

// cell is one non-empty grid partition: every resident member in arrival
// order, plus the local skyline of those members (the window a mapper of
// Algorithm 3 would hold for this partition). The window holds its rows in
// arrival order too: an insert appends, an eviction keeps the order, and a
// repair re-inserts in arrival order.
type cell struct {
	members []member
	sky     *window.Window
}

// cellRow is a row of a cell's window, tagged with its cell.
type cellRow struct {
	cell int
	t    tuple.Tuple
}

// same reports whether a and b are one resident row, not two equal ones.
func same(a, b tuple.Tuple) bool { return &a[0] == &b[0] }

// indexSame returns the position of row t in rows, or -1.
func indexSame(rows tuple.List, t tuple.Tuple) int {
	for i, u := range rows {
		if same(u, t) {
			return i
		}
	}
	return -1
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
	// entered and gone live for one batch: the rows that entered a window
	// (insert or repair) and the window rows that left with their member
	// (delete or eviction). A cell's window changes only through them, and
	// publishLocked refreshes contributions from them.
	entered, gone []cellRow
	scratch       tuple.List       // a repair's or a refresh's rows
	filters       []*window.Window // a refresh's ADR windows
	seq           uint64
	fifo          []fifoRef // arrival order; WindowCap > 0 only
	head          int       // fifo's logical start (popped prefix)
	size          int
	gen           uint64
	cnt           window.Count
	stats         Stats

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
// a full recompute would run over. The copies share one block (see
// copyRows).
func (m *Maintained) Rows() tuple.List {
	m.mu.Lock()
	defer m.mu.Unlock()
	out, flat := make(tuple.List, 0, m.size), make([]float64, 0, m.size*m.g.Dim())
	for _, idx := range m.sortedCells() {
		out, flat = copyRows(out, flat, m.cells[idx].members)
	}
	return out
}

// ArrivalRows returns a copy of every resident tuple in global arrival
// order (the sequence inserts happened in, deletions excised), in one block
// like Rows. Reseeding a fresh Maintained with this list reproduces the
// current state exactly: per-cell member order, every cell window, the
// sliding-window eviction order, and therefore the published skyline bytes
// — which is what makes it the canonical checkpoint serialization for
// durable recovery.
func (m *Maintained) ArrivalRows() tuple.List {
	m.mu.Lock()
	defer m.mu.Unlock()
	rows := make([]member, 0, m.size)
	for _, c := range m.cells {
		rows = append(rows, c.members...)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	out, _ := copyRows(make(tuple.List, 0, len(rows)), make([]float64, 0, len(rows)*m.g.Dim()), rows)
	return out
}

// copyRows appends copies of the members' rows to out, carved from flat's
// spare capacity, which must hold them all: the copies share one block, and
// each row's capacity ends at its length, so appending to one row cannot
// reach the next.
func copyRows(out tuple.List, flat []float64, members []member) (tuple.List, []float64) {
	for _, mb := range members {
		flat = append(flat, mb.t...)
		out = append(out, flat[len(flat)-len(mb.t):len(flat):len(flat)])
	}
	return out, flat
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
// cell's local skyline (Algorithm 4), set the occupancy bit. An entrant joins
// E only while a contribution is cached: a cell with none is refreshed in full.
func (m *Maintained) insertLocked(t tuple.Tuple) {
	j := m.g.Locate(t)
	c := m.cells[j]
	if c == nil {
		c = &cell{sky: window.New(m.g.Dim())}
		m.cells[j] = c
		m.occ.Set(j)
	}
	if m.seq++; m.seq>>(64-fpBits) != 0 {
		panic("maintain: arrival sequence exhausted") // 2^48 inserts without a reseed
	}
	c.members = append(c.members, member{t: t, key: m.seq<<fpBits | fingerprint(t)})
	m.size++
	if m.cap > 0 {
		m.fifo = append(m.fifo, fifoRef{cellIdx: j, seq: m.seq})
	}
	if c.sky.Insert(t, &m.cnt) && len(m.contrib) > 0 {
		m.entered = append(m.entered, cellRow{j, t})
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
	fp := fingerprint(row)
	for i, mb := range c.members {
		if mb.key&(1<<fpBits-1) == fp && mb.t.Equal(row) {
			m.removeMemberLocked(j, c, i)
			return true
		}
	}
	return false
}

// removeMemberLocked excises members[at] from cell j and repairs state:
// an emptied cell clears its occupancy bit — the cells its bitstring bit
// had pruned resurface at the next publish through PruneInto, their local
// skylines already current — and a removed window row is recorded in gone
// and repaired.
func (m *Maintained) removeMemberLocked(j int, c *cell, at int) {
	x := c.members[at].t
	c.members = append(c.members[:at], c.members[at+1:]...)
	m.size--
	w := c.sky.Rows()
	in := indexSame(w, x)
	if in >= 0 {
		m.gone = append(m.gone, cellRow{j, x})
	}
	if len(c.members) == 0 {
		delete(m.cells, j)
		m.occ.Clear(j)
		return
	}
	if in < 0 {
		return
	}
	// Repair (see the package comment): BNL over the window's other rows and
	// the members x dominates. Until one of those members enters, the window
	// holds old rows only, which dominate none of each other: they append
	// untested.
	m.scratch = append(append(m.scratch[:0], w[:in]...), w[in+1:]...)
	c.sky.Reset()
	p, grown := 0, false
	for _, mb := range c.members {
		switch {
		case p < len(m.scratch) && same(mb.t, m.scratch[p]):
			p++
			if grown {
				c.sky.Insert(mb.t, &m.cnt)
			} else {
				c.sky.Append(mb.t)
			}
		case m.dominatedBy(tuple.List{x}, mb.t) && c.sky.Insert(mb.t, &m.cnt):
			grown = true
			m.entered = append(m.entered, cellRow{j, mb.t})
		}
	}
	clear(m.scratch)
	m.stats.CellRebuilds++
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
	i := sort.Search(len(c.members), func(i int) bool { return c.members[i].key>>fpBits >= ref.seq })
	if i == len(c.members) || c.members[i].key>>fpBits != ref.seq {
		panic(fmt.Sprintf("maintain: fifo references missing member seq %d in cell %d", ref.seq, ref.cellIdx))
	}
	m.removeMemberLocked(ref.cellIdx, c, i)
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
// A contribution is stale when it is not cached (the cell is new or has
// just stopped being pruned) or when a row entered or left a window of its
// weak ADR this batch. A survival flip elsewhere leaves it exact: a cell of
// k's ADR that a flip prunes or un-prunes takes k with it. Everything else
// is reused from the previous publish, which is what keeps a batch touching
// one cell from paying for the whole grid.
func (m *Maintained) publishLocked() {
	pruned := bitstring.New(m.g.NumPartitions())
	m.g.PruneInto(pruned, m.occ)
	for j := range m.contrib {
		if !pruned.Get(j) {
			delete(m.contrib, j)
		}
	}

	// The cells a row entered or left, as coordinates, then E: the rows
	// that entered a window this batch and are still in it.
	var touched []int
	for _, r := range append(m.entered, m.gone...) {
		touched = append(touched, r.cell)
	}
	sort.Ints(touched)
	touched = slices.Compact(touched)
	d := m.g.Dim()
	coords := make([]int, (len(touched)+1)*d)
	for i, j := range touched {
		m.g.Coords(j, coords[i*d:(i+1)*d])
	}
	entered := m.entered[:0]
	for _, e := range m.entered {
		if c := m.cells[e.cell]; c != nil && indexSame(c.sky.Rows(), e.t) >= 0 {
			entered = append(entered, e)
		}
	}

	active := m.sortedCells()
	kc, adrDims := coords[len(touched)*d:], make([]int, 0, d)
	for _, k := range active {
		if !pruned.Get(k) {
			continue
		}
		_, cached := m.contrib[k]
		m.g.Coords(k, kc)
		stale := !cached
		for i := range touched {
			stale = stale || inWeakADR(coords[i*d:(i+1)*d], kc)
		}
		if stale {
			m.contrib[k] = m.refresh(k, active, pruned, entered, adrDims)
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

	m.pruned = pruned
	m.entered, m.gone = nil, nil
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

// refresh computes surviving cell k's slice of the global skyline — its
// window's rows that no row of a surviving ADR window dominates, in window
// order — from its cached contribution and the batch's E (entered) and D
// (m.gone) rows, by the rule of the package comment. active must be
// ascending; scratch, with room for d entries, keeps the ADR test from
// allocating.
func (m *Maintained) refresh(k int, active []int, pruned *bitstring.Bitstring, entered []cellRow, scratch []int) tuple.List {
	inADR := func(j int) bool {
		_, in := m.g.ADRDims(j, k, scratch[:0])
		return in
	}
	old, cached := m.contrib[k]
	buf := m.scratch[:0]
	pick := func(rows []cellRow, keep func(j int) bool) tuple.List {
		from := len(buf)
		for _, r := range rows {
			if keep(r.cell) {
				buf = append(buf, r.t)
			}
		}
		return buf[from:]
	}
	var added, removed, own tuple.List
	if cached {
		added, removed = pick(entered, inADR), pick(m.gone, inADR)
		own = pick(entered, func(j int) bool { return j == k })
	}
	filters, built := m.filters[:0], false // the surviving ADR windows, once a row needs them
	rows := m.cells[k].sky.Rows()
	out := make(tuple.List, 0, len(rows))
	p := 0 // old's rows before p are behind the walk: both are in window order
next:
	for _, t := range rows {
		if cached && indexSame(own, t) < 0 {
			if i := indexSame(old[p:], t); i >= 0 {
				p += i + 1
				if !m.dominatedBy(added, t) {
					out = append(out, t)
				}
				continue
			}
			if !m.dominatedBy(removed, t) {
				continue
			}
		}
		if !built {
			for _, j := range active {
				if inADR(j) && pruned.Get(j) {
					filters = append(filters, m.cells[j].sky)
				}
			}
			built = true
		}
		for _, f := range filters {
			if f.Dominated(t, &m.cnt) {
				continue next
			}
		}
		out = append(out, t)
	}
	clear(buf)
	clear(filters)
	m.scratch, m.filters = buf[:0], filters[:0]
	return out
}

// dominatedBy reports whether a row of by dominates t, counting one test per
// row it compares.
func (m *Maintained) dominatedBy(by tuple.List, t tuple.Tuple) bool {
	for i, u := range by {
		if tuple.Dominates(u, t) {
			m.cnt.Add(int64(i + 1))
			return true
		}
	}
	m.cnt.Add(int64(len(by)))
	return false
}
