package mrskyline

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"mrskyline/internal/tuple"
)

// Dataset is an immutable set of rows queried through a Service, and the
// one implementation of a skyline query: the package-level Compute,
// ComputeConstrained and ComputeSubspace run a Dataset on a one-shot
// cluster, Service.Compute runs one over the rows of its request, and
// cmd/skylined registers one per named dataset. Work that is a function of
// the rows alone and not of the request is kept across a handle's queries:
//
//   - Rows are checked on first use, and a well-formed verdict is kept. A
//     dataset with a ragged or non-finite row is still a Dataset; its
//     queries take the unprepared path and fail (or, for a subspace that
//     avoids the bad column, succeed) with the package-level functions'
//     errors.
//   - For the grid algorithms (GPMRS, GPSRS, Hybrid) the handle keeps one
//     prepared plan: the rows oriented and encoded as the job input, and the
//     grid and pruned bitstring the Section 3.3 job chose — all pure
//     functions of the rows, Options.Maximize's sign vector, Options.PPD and
//     Options.Mappers, which together are the plan's key. Queries with the
//     kept key run only their skyline job; a query with another key prepares
//     its own plan, which then replaces the kept one, so a handle never
//     holds more than one encoded copy of its rows. A plan whose job failed
//     is not kept. Constrained and subspace queries run over rows that
//     differ per request and keep no plan.
//
// Stats of a query served from the kept plan equal those of the same query
// on a fresh handle (the first job's share of ShuffleBytes, PPD,
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

	// wellFormed is set once every row is known to have the first row's
	// width and finite values: by valid, or by a constrained query's
	// filter, which checks every row on its way.
	wellFormed atomic.Bool

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

// valid reports whether the (non-empty) rows are all well-formed. Only a
// yes is kept: a malformed dataset's queries fail or take the
// unprepared path anyway. The per-row test is tuple.CheckAt's, written out
// so that the scan — the one row check of a package-level Compute — makes
// no call per row.
func (d *Dataset) valid() bool {
	if d.wellFormed.Load() {
		return true
	}
	n := len(d.rows[0])
	for _, row := range d.rows {
		if n == 0 || len(row) != n || !tuple.Tuple(row).Valid() {
			return false
		}
	}
	d.wellFormed.Store(true)
	return true
}

// Compute returns the skyline of the dataset's rows under opts, on the
// service's cluster, under ctx and the service deadline.
func (d *Dataset) Compute(ctx context.Context, opts Options) (*Result, error) {
	return d.query(ctx, opts, nil, nil)
}

// ComputeConstrained returns the constrained skyline of the dataset's rows
// (see the package-level ComputeConstrained).
func (d *Dataset) ComputeConstrained(ctx context.Context, constraints []Range, opts Options) (*Result, error) {
	return d.query(ctx, opts, validateConstraints(constraints, opts), func(rows [][]float64) ([][]float64, error) {
		checked := d.wellFormed.Load()
		kept, err := filterConstrained(rows, constraints, checked)
		if err == nil && !checked {
			d.wellFormed.Store(true)
		}
		return kept, err
	})
}

// ComputeSubspace returns the subspace skyline of the dataset's rows over
// dims (see the package-level ComputeSubspace).
func (d *Dataset) ComputeSubspace(ctx context.Context, dims []int, opts Options) (*Result, error) {
	return d.query(ctx, opts, validateDims(dims, opts), func(rows [][]float64) ([][]float64, error) {
		return projectSubspace(rows, dims)
	})
}

// query is the body of every skyline query. Options are checked first and
// argErr — the query shape's own argument check — second, both before the
// empty-data fast path. The deadline starts next: selecting the rows
// (sel; nil for every row) is part of serving the query, so an expired
// context is not billed only against the MapReduce jobs. The jobs run from
// the kept plan when the query is over every row of a well-formed dataset
// with a grid algorithm, and from scratch otherwise.
func (d *Dataset) query(ctx context.Context, opts Options, argErr error, sel func([][]float64) ([][]float64, error)) (*Result, error) {
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	if argErr != nil {
		return nil, argErr
	}
	ctx, cancel := d.svc.queryCtx(ctx)
	defer cancel()
	rows := d.rows
	if sel != nil {
		var err error
		if rows, err = sel(rows); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if len(rows) == 0 {
		return &Result{Stats: Stats{Algorithm: string(algorithmOrDefault(opts.Algorithm))}}, nil
	}
	ok := d.valid()
	if sel != nil || !ok || !algorithmOrDefault(opts.Algorithm).grid() {
		return computeOn(ctx, d.svc.exec, rows, opts, ok)
	}
	start := time.Now()
	p, err := d.plan(ctx, opts)
	if err != nil {
		return nil, err
	}
	return p.run(ctx, d.svc.exec, opts, start)
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
