// Package mrskyline computes skylines of multi-dimensional datasets on an
// in-process MapReduce substrate, reproducing the algorithms of
// "Efficient Skyline Computation in MapReduce" (Mullesgaard, Pedersen, Lu,
// Zhou — EDBT 2014).
//
// The skyline of a dataset is the set of tuples not dominated by any other
// tuple: a tuple dominates another when it is at least as good on every
// dimension and strictly better on at least one. By default smaller values
// are better; Options.Maximize flips individual dimensions.
//
// Two algorithms from the paper are provided — MR-GPSRS (grid partitioning,
// single reducer) and MR-GPMRS (grid partitioning, multiple parallel
// reducers) — together with the baselines they were evaluated against
// (MR-BNL, MR-Angle) and the paper's future-work Hybrid that picks between
// the two automatically. All of them execute as real MapReduce
// jobs: input splits, serialized shuffle, distributed cache, task retry,
// scheduled over a simulated multi-node cluster.
//
// Quick start:
//
//	sky, err := mrskyline.Compute(points, mrskyline.Options{})
//
// For serving many queries, NewService runs them on one long-lived
// simulated cluster with admission control; cmd/skylined wraps a Service
// in an HTTP API.
//
// # Validation contract
//
// Every entry point — Compute, ComputeConstrained, ComputeSubspace, and
// the Dataset methods they run — validates its arguments identically whether
// the input data is empty or not: an unknown Options.Algorithm, a negative
// cluster shape, a constraint or subspace selection inconsistent with
// Options.Maximize, NaN constraint bounds, an inverted Range, and duplicate
// or negative subspace dimensions all fail regardless of data. Checks that need the data's dimensionality
// (Maximize/constraints/dims length versus d, ragged rows, non-finite
// values) apply whenever data is present; rows are validated before any
// filtering, so a dataset that Compute rejects is never silently filtered
// into acceptance by a constrained query.
//
// See the examples/ directory for complete programs and cmd/skybench for
// the harness regenerating every figure of the paper's evaluation.
package mrskyline

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"time"

	"mrskyline/internal/baseline"
	"mrskyline/internal/cluster"
	"mrskyline/internal/core"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/spill"
	"mrskyline/internal/tuple"
)

// Algorithm selects the MapReduce skyline algorithm.
type Algorithm string

// The available algorithms.
const (
	// GPMRS is MR-GPMRS: grid partitioning with multiple parallel reducers
	// (the paper's headline algorithm, best on skyline-heavy data).
	GPMRS Algorithm = "MR-GPMRS"
	// GPSRS is MR-GPSRS: grid partitioning with a single reducer (best
	// when the skyline is a small fraction of the data).
	GPSRS Algorithm = "MR-GPSRS"
	// Hybrid picks GPSRS or GPMRS automatically from the bitstring, per
	// the paper's future-work proposal.
	Hybrid Algorithm = "Hybrid"
	// MRBNL is the MR-BNL baseline [Zhang et al., DASFAA-W 2011].
	MRBNL Algorithm = "MR-BNL"
	// MRAngle is the MR-Angle baseline [Chen et al., IPDPS-W 2012].
	MRAngle Algorithm = "MR-Angle"
)

// Algorithms lists every supported Algorithm value.
func Algorithms() []Algorithm {
	return []Algorithm{GPMRS, GPSRS, Hybrid, MRBNL, MRAngle}
}

// Options configures Compute. The zero value is ready to use: MR-GPMRS on
// a simulated 8-node cluster with auto-selected grid granularity.
type Options struct {
	// Algorithm defaults to GPMRS.
	Algorithm Algorithm
	// Nodes is the simulated cluster size (default 8).
	Nodes int
	// SlotsPerNode is the per-node concurrent task count (default 2).
	SlotsPerNode int
	// Mappers is the map task count (default: all slots).
	Mappers int
	// Reducers is the reduce task count for GPMRS/Hybrid (default: one per
	// node).
	Reducers int
	// PPD fixes the grid's partitions-per-dimension; 0 selects it with the
	// paper's MapReduce heuristic (Section 3.3).
	PPD int
	// Maximize marks dimensions where larger values are better. Nil means
	// all dimensions minimize. Length must equal the data dimensionality.
	Maximize []bool
	// SpillBudget, when positive, bounds shuffle residency in bytes: map
	// outputs beyond the budget spill to sorted run files and reducers
	// stream a merge of those runs. 0 keeps the shuffle in memory. The
	// spilled path produces byte-identical results.
	SpillBudget int64
	// SpillDir is where run files go when SpillBudget is set (default:
	// the system temp dir). Per-job files are removed when the job ends.
	SpillDir string
}

// Stats describes what a Compute call did.
type Stats struct {
	// Algorithm is the algorithm that ran (Hybrid reports its choice as
	// "Hybrid(MR-GPSRS)" or "Hybrid(MR-GPMRS)").
	Algorithm string
	// Runtime is the end-to-end wall-clock duration, including bitstring
	// generation for the grid algorithms.
	Runtime time.Duration
	// SkylineSize is the number of skyline tuples.
	SkylineSize int
	// PPD is the grid granularity used (grid algorithms; 0 otherwise).
	PPD int
	// Partitions, NonEmpty and Surviving describe the grid and the
	// bitstring pruning (grid algorithms; 0 otherwise).
	Partitions int
	NonEmpty   int
	Surviving  int
	// Groups is the independent-partition-group count (MR-GPMRS only).
	Groups int
	// DominanceTests counts tuple-pair comparisons across all tasks.
	DominanceTests int64
	// ShuffleBytes is the total volume crossing the MapReduce shuffle.
	ShuffleBytes int64
}

// Result is a computed skyline plus its run statistics.
type Result struct {
	// Skyline holds the skyline tuples with their original values (and
	// orientations, when Maximize was used). Order is deterministic but
	// unspecified.
	Skyline [][]float64
	// Stats describes the run.
	Stats Stats
}

// Compute returns the skyline of data. Every row must have the same number
// of columns and contain only finite values. The input is not modified.
// Options are validated before the empty-input fast path, so an unknown
// algorithm or kernel fails on empty data too (see the package-level
// validation contract).
func Compute(data [][]float64, opts Options) (*Result, error) {
	s, err := oneShot(opts)
	if err != nil {
		return nil, err
	}
	return s.Dataset(data).Compute(context.Background(), opts)
}

// oneShot validates opts and returns the service a package-level query
// runs on: a fresh engine of opts' shape, with no admission bound and no
// deadline.
func oneShot(opts Options) (*Service, error) {
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	eng, err := newEngine(opts)
	if err != nil {
		return nil, err
	}
	return &Service{exec: eng}, nil
}

// validateOptions checks the data-independent parts of opts — the
// algorithm name, the simulated cluster shape and the PPD — so
// invalid options fail identically on empty and non-empty data, whichever
// algorithm runs.
func validateOptions(opts Options) error {
	switch algorithmOrDefault(opts.Algorithm) {
	case GPMRS, GPSRS, Hybrid, MRBNL, MRAngle:
	default:
		return fmt.Errorf("mrskyline: unknown algorithm %q", opts.Algorithm)
	}
	if opts.Nodes < 0 {
		return fmt.Errorf("mrskyline: Nodes must be ≥ 0, got %d", opts.Nodes)
	}
	if opts.SlotsPerNode < 0 {
		return fmt.Errorf("mrskyline: SlotsPerNode must be ≥ 0, got %d", opts.SlotsPerNode)
	}
	if opts.Mappers < 0 {
		return fmt.Errorf("mrskyline: Mappers must be ≥ 0, got %d", opts.Mappers)
	}
	if opts.Reducers < 0 {
		return fmt.Errorf("mrskyline: Reducers must be ≥ 0, got %d", opts.Reducers)
	}
	if opts.PPD < 0 || opts.PPD == 1 {
		return fmt.Errorf("mrskyline: PPD must be 0 (auto) or ≥ 2, got %d", opts.PPD)
	}
	if err := spill.ValidateSetup(opts.SpillBudget, opts.SpillDir); err != nil {
		return fmt.Errorf("mrskyline: %w", err)
	}
	return nil
}

// computeOn runs the pipeline — row validation, orientation, algorithm
// dispatch — on an existing executor, which may be shared across
// concurrent callers (Service runs all its queries through one) and may be
// the in-process engine or a multi-process backend. data is non-empty and
// opts must already have passed validateOptions; ctx bounds every MapReduce
// job of the run. validated says the caller has already found every row of
// data well-formed (same width, finite values), so the row check is not
// repeated.
func computeOn(ctx context.Context, eng mapreduce.Executor, data [][]float64, opts Options, validated bool) (*Result, error) {
	algo := algorithmOrDefault(opts.Algorithm)
	if algo.grid() {
		start := time.Now()
		p, err := newGridPlan(ctx, eng, data, opts, validated)
		if err != nil {
			return nil, err
		}
		return p.run(ctx, eng, opts, start)
	}

	orient, in, lo, hi, err := orientInput(data, opts.Maximize, validated)
	if err != nil {
		return nil, err
	}
	cfg := baseline.Config{Engine: eng, Ctx: ctx, NumMappers: opts.Mappers, Lo: lo, Hi: hi}
	var (
		sky tuple.List
		bs  *baseline.Stats
	)
	switch algo {
	case MRBNL:
		sky, bs, err = baseline.MRBNLRows(cfg, in)
	case MRAngle:
		sky, bs, err = baseline.MRAngleRows(cfg, in)
	default:
		return nil, fmt.Errorf("mrskyline: unknown algorithm %q", opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Skyline: orient.restore(sky), Stats: Stats{
		Algorithm:      bs.Algorithm,
		Runtime:        bs.Total,
		SkylineSize:    bs.SkylineSize,
		DominanceTests: bs.DominanceTests,
		ShuffleBytes:   bs.ShuffleBytes,
	}}, nil
}

// grid reports whether a is one of the paper's grid-partitioning
// algorithms, the ones whose first job a gridPlan keeps.
func (a Algorithm) grid() bool { return a == GPSRS || a == GPMRS || a == Hybrid }

// checkMaximize rejects a Maximize vector that disagrees with the data's
// dimensionality d.
func checkMaximize(maximize []bool, d int) error {
	if maximize != nil && len(maximize) != d {
		return fmt.Errorf("mrskyline: Maximize has %d entries for %d-dimensional data", len(maximize), d)
	}
	return nil
}

// orientInput is the one pass from non-empty data to every algorithm's
// job input: Maximize is checked against data's width, then
// core.EncodeRows checks each row (unless validated) before it negates the
// row's maximized dimensions, so a malformed row is reported with the
// caller's values, and folds the bounds, grid.DataBounds of the oriented
// rows bit for bit. The input is data itself under the identity
// orientation, else one oriented copy.
func orientInput(data [][]float64, maximize []bool, validated bool) (Orientation, mapreduce.TupleRows, tuple.Tuple, tuple.Tuple, error) {
	if err := checkMaximize(maximize, len(data[0])); err != nil {
		return Orientation{}, nil, nil, nil, err
	}
	orient := NewOrientation(maximize)
	in, lo, hi, err := core.EncodeRows(data, orient.signs, validated)
	if err != nil {
		return Orientation{}, nil, nil, nil, fmt.Errorf("mrskyline: %w", err)
	}
	return orient, in, lo, hi, nil
}

// gridPlan is a dataset prepared for the grid algorithms under one
// orientation: the request-independent half of the run (core.Plan — the
// rows input and the Section 3.3 job's grid and bitstring) plus the
// orientation that maps skylines back. It is immutable; a Dataset handle
// keeps one and runs every matching query from it.
type gridPlan struct {
	orient Orientation
	plan   *core.Plan
}

// gridConfig maps opts onto core's configuration.
func gridConfig(ctx context.Context, eng mapreduce.Executor, opts Options) core.Config {
	return core.Config{
		Engine:      eng,
		Ctx:         ctx,
		NumMappers:  opts.Mappers,
		NumReducers: opts.Reducers,
		PPD:         opts.PPD,
	}
}

// newGridPlan takes data through the input pass (orientInput) and runs the
// bitstring phase over the rows it returns, everything a grid query does
// before its skyline job.
func newGridPlan(ctx context.Context, eng mapreduce.Executor, data [][]float64, opts Options, validated bool) (*gridPlan, error) {
	orient, in, lo, hi, err := orientInput(data, opts.Maximize, validated)
	if err != nil {
		return nil, err
	}
	cfg := gridConfig(ctx, eng, opts)
	cfg.Lo, cfg.Hi = lo, hi
	plan, err := core.Prepare(cfg, in)
	if err != nil {
		return nil, err
	}
	return &gridPlan{orient: orient, plan: plan}, nil
}

// run executes opts.Algorithm's skyline job over the plan. start is when
// the query began; Stats.Runtime counts from it.
func (p *gridPlan) run(ctx context.Context, eng mapreduce.Executor, opts Options, start time.Time) (*Result, error) {
	algo := core.AlgoHybrid
	switch algorithmOrDefault(opts.Algorithm) {
	case GPSRS:
		algo = core.AlgoGPSRS
	case GPMRS:
		algo = core.AlgoGPMRS
	}
	sky, cs, err := p.plan.Run(gridConfig(ctx, eng, opts), algo)
	if err != nil {
		return nil, err
	}
	return &Result{Skyline: p.orient.restore(sky), Stats: Stats{
		Algorithm:      cs.Algorithm,
		Runtime:        time.Since(start),
		SkylineSize:    cs.SkylineSize,
		PPD:            cs.PPD,
		Partitions:     cs.Partitions,
		NonEmpty:       cs.NonEmpty,
		Surviving:      cs.Surviving,
		Groups:         cs.Groups,
		DominanceTests: cs.DominanceTests,
		ShuffleBytes:   cs.ShuffleBytes,
	}}, nil
}

func algorithmOrDefault(a Algorithm) Algorithm {
	if a == "" {
		return GPMRS
	}
	return a
}

// newEngine builds the default executor: an in-process engine on a fresh
// simulated cluster of opts' shape (8 nodes × 2 slots unless set), with the
// spilled shuffle when opts carries a budget. The one-shot entry points
// build one per call, NewService one for the service's life; of opts only
// the cluster shape and the spill fields are read.
func newEngine(opts Options) (*mapreduce.Engine, error) {
	nodes := cmp.Or(opts.Nodes, 8)
	slots := cmp.Or(opts.SlotsPerNode, 2)
	if nodes < 0 || slots < 0 {
		return nil, fmt.Errorf("mrskyline: negative cluster shape %d nodes × %d slots", opts.Nodes, opts.SlotsPerNode)
	}
	c, err := cluster.Uniform(nodes, slots)
	if err != nil {
		return nil, fmt.Errorf("mrskyline: %w", err)
	}
	eng := mapreduce.NewEngine(c)
	if opts.SpillBudget > 0 {
		dir := opts.SpillDir
		if dir == "" {
			dir = os.TempDir()
		}
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("mrskyline: SpillDir %q is not a usable directory", dir)
		}
		eng.Spill = &spill.Config{Dir: dir, Budget: opts.SpillBudget, Stats: &spill.Stats{}}
	}
	return eng, nil
}

// Orientation captures a per-dimension min/max preference, normalized
// once into a sign vector: minimized dimensions carry +1, maximized ones
// −1, and multiplying a value by its sign turns every later comparison
// into pure minimization with no per-dimension branching (negation is
// exact in IEEE 754). Build one with NewOrientation and reuse it when
// comparing many tuple pairs under the same preference.
type Orientation struct {
	// signs is nil for the identity orientation (all dimensions
	// minimize); dimensions beyond its length minimize.
	signs []float64
}

// NewOrientation builds the orientation for maximize, interpreted as in
// Options.Maximize: nil (or all-false) means every dimension minimizes.
func NewOrientation(maximize []bool) Orientation {
	var signs []float64
	for k, m := range maximize {
		if m {
			if signs == nil {
				signs = make([]float64, len(maximize))
				for j := range signs {
					signs[j] = 1
				}
			}
			signs[k] = -1
		}
	}
	return Orientation{signs: signs}
}

// Identity reports whether the orientation leaves values unchanged.
func (o Orientation) Identity() bool { return o.signs == nil }

// Apply returns row under the all-minimize view: maximized dimensions
// are negated. The identity orientation returns row itself (no copy);
// otherwise a fresh slice is returned. Apply is its own inverse up to
// the copy: applying it to an oriented row restores the original values.
func (o Orientation) Apply(row []float64) []float64 {
	if o.signs == nil {
		return row
	}
	return o.copyOf(row)
}

// copyOf returns a fresh copy of row under the orientation, under every
// orientation one allocation.
func (o Orientation) copyOf(row []float64) []float64 {
	out := tuple.Tuple(row).Clone()
	o.applyInPlace(out)
	return out
}

// applyInPlace negates row's maximized dimensions where it stands.
func (o Orientation) applyInPlace(row []float64) {
	for k, s := range o.signs {
		if k < len(row) {
			row[k] *= s
		}
	}
}

// restore maps a skyline computed under the all-minimize view back to the
// caller's values (Apply is an involution) as plain slices.
func (o Orientation) restore(sky tuple.List) [][]float64 {
	out := make([][]float64, len(sky))
	for i, t := range sky {
		out[i] = o.Apply([]float64(t))
	}
	return out
}

// Dominates reports whether a dominates b under the orientation: at
// least as good on every dimension and strictly better on at least one.
func (o Orientation) Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	better, worse := false, false
	for k := range a {
		av, bv := a[k], b[k]
		if k < len(o.signs) {
			s := o.signs[k]
			av *= s
			bv *= s
		}
		switch {
		case av < bv:
			better = true
		case av > bv:
			worse = true
		}
	}
	return better && !worse
}

// Dominates reports whether tuple a dominates tuple b under the orientation
// given by maximize (nil = minimize everything): a is at least as good on
// every dimension and strictly better on at least one. Callers comparing
// many pairs under one preference should build a NewOrientation once and
// use its Dominates method instead.
func Dominates(a, b []float64, maximize []bool) bool {
	return NewOrientation(maximize).Dominates(a, b)
}
