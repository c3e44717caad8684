package mrskyline

import (
	"context"
	"sync"
	"time"

	"mrskyline/internal/tuple"
)

// Dataset is an immutable dataset registered with a Service, for callers
// that query the same rows many times (cmd/skylined's named datasets). Its
// methods are the Service's Compute, ComputeConstrained and ComputeSubspace
// over those rows — same arguments otherwise, same validation, same errors,
// byte-identical skylines — minus the work that is a function of the rows
// alone and not of the request:
//
//   - Rows are checked once, on first use, and the verdict is kept. A
//     dataset with a ragged or non-finite row is still a Dataset; its
//     queries take the unprepared path and fail (or, for a subspace that
//     avoids the bad column, succeed) exactly as the Service methods do.
//   - For the grid algorithms (GPMRS, GPSRS, Hybrid) the handle keeps one
//     prepared plan: the rows oriented and encoded as the job input, and the
//     grid and pruned bitstring the Section 3.3 job chose — all pure
//     functions of the rows, Options.Maximize's sign vector, Options.PPD and
//     Options.Mappers, which together are the plan's key. Queries with the
//     kept key run only their skyline job; a query with another key prepares
//     its own plan, which then replaces the kept one, so a handle never
//     holds more than one encoded copy of its rows. A plan whose job failed
//     is not kept.
//
// Stats of a query served from the kept plan equal those of the same query
// through the Service (the first job's share of ShuffleBytes, PPD,
// Partitions, NonEmpty and Surviving is read from the job the plan
// remembers) except Runtime, which is the wall time of this request: it
// includes the bitstring job only for the request that ran it.
//
// All methods are safe for concurrent use. Concurrent first queries prepare
// one plan between them: one runs the job, the others wait for it or for
// their own context.
type Dataset struct {
	svc  *Service
	rows [][]float64

	checkRows sync.Once
	rowsOK    bool

	mu   sync.Mutex
	slot *planSlot
}

// planKey identifies what a kept plan was prepared for. signs is the
// Maximize sign vector, one byte per dimension, empty when nothing is
// maximized (nil and all-false Maximize are the same orientation).
type planKey struct {
	signs        string
	ppd, mappers int
}

// signKey renders maximize's sign vector for a planKey.
func signKey(maximize []bool) string {
	if NewOrientation(maximize).Identity() {
		return ""
	}
	signs := make([]byte, len(maximize))
	for k, m := range maximize {
		signs[k] = '+'
		if m {
			signs[k] = '-'
		}
	}
	return string(signs)
}

// planSlot is the handle's one plan, possibly still being prepared: plan
// and err are set before ready is closed and never change afterwards.
type planSlot struct {
	key   planKey
	ready chan struct{}
	plan  *gridPlan
	err   error
}

// Dataset registers rows with the service and returns their handle. The
// handle takes ownership: rows and the slices it holds must not be modified
// afterwards. Registration does no work and cannot fail; see Dataset for
// when the rows are checked.
func (s *Service) Dataset(rows [][]float64) *Dataset {
	return &Dataset{svc: s, rows: rows}
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.rows) }

// valid reports whether every row is well-formed, checking on first call.
func (d *Dataset) valid() bool {
	d.checkRows.Do(func() {
		for i, row := range d.rows {
			if tuple.CheckAt(i, row, len(d.rows[0])) != nil {
				return
			}
		}
		d.rowsOK = true
	})
	return d.rowsOK
}

// Compute is Service.Compute over the dataset's rows.
func (d *Dataset) Compute(ctx context.Context, opts Options) (*Result, error) {
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	if len(d.rows) == 0 {
		return emptyResult(opts), nil
	}
	ctx, cancel := d.svc.queryCtx(ctx)
	defer cancel()
	if ok := d.valid(); !ok || !algorithmOrDefault(opts.Algorithm).grid() {
		return computeOn(ctx, d.svc.exec, d.rows, opts, ok)
	}
	start := time.Now()
	p, err := d.plan(ctx, opts)
	if err != nil {
		return nil, err
	}
	return p.run(ctx, d.svc.exec, opts, start)
}

// ComputeConstrained is Service.ComputeConstrained over the dataset's rows.
// The rows inside the box differ per request, so nothing is kept; only the
// row check is not repeated.
func (d *Dataset) ComputeConstrained(ctx context.Context, constraints []Range, opts Options) (*Result, error) {
	return d.svc.constrained(ctx, d.rows, constraints, opts, d.valid())
}

// ComputeSubspace is Service.ComputeSubspace over the dataset's rows; as
// with ComputeConstrained only the row check is not repeated.
func (d *Dataset) ComputeSubspace(ctx context.Context, dims []int, opts Options) (*Result, error) {
	return d.svc.subspace(ctx, d.rows, dims, opts, d.valid())
}

// plan returns the prepared plan for opts over the (valid, non-empty) rows:
// the kept one when its key matches, else a new one, prepared under ctx by
// this call and kept in its place.
func (d *Dataset) plan(ctx context.Context, opts Options) (*gridPlan, error) {
	if err := checkMaximize(opts.Maximize, len(d.rows[0])); err != nil {
		return nil, err
	}
	key := planKey{signs: signKey(opts.Maximize), ppd: opts.PPD, mappers: opts.Mappers}
	for {
		d.mu.Lock()
		s := d.slot
		if s == nil || s.key != key {
			s = &planSlot{key: key, ready: make(chan struct{})}
			d.slot = s
			d.mu.Unlock()
			s.plan, s.err = newGridPlan(ctx, d.svc.exec, d.rows, opts, true)
			if s.err != nil {
				d.mu.Lock()
				if d.slot == s {
					d.slot = nil
				}
				d.mu.Unlock()
			}
			close(s.ready)
			return s.plan, s.err
		}
		d.mu.Unlock()
		select {
		case <-s.ready:
			if s.err == nil {
				return s.plan, nil
			}
			// The preparing query's job failed — its deadline, a full
			// queue — and its plan was dropped; prepare again under this
			// query's own context.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
