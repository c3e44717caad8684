package core

import (
	"time"

	"mrskyline/internal/mapreduce"
	"mrskyline/internal/tuple"
)

// Plan is the part of a grid skyline run over an in-memory dataset that
// does not depend on which skyline job follows, or on how often: the
// dataset encoded once as a job input, and the grid and pruned global
// bitstring job 1 (the Section 3.3 job) derived from it. Both are pure
// functions of the data, the domain bounds, the PPD setting and the mapper
// count, so a caller that queries one immutable dataset repeatedly
// prepares once and calls Run per query. A Plan is immutable
// and safe for concurrent Runs.
type Plan struct {
	input mapreduce.Input
	card  int
	prep  *BitstringResult
}

// Prepare validates data, encodes it once and runs job 1 under cfg
// (Engine, Ctx, NumMappers, PPD, Lo/Hi, DisablePruning). data must be
// non-empty.
func Prepare(cfg Config, data tuple.List) (*Plan, error) {
	if err := data.Validate(); err != nil {
		return nil, err
	}
	// Nothing below the encoding may mention data: the input is a copy,
	// and a reference held across the bitstring job (even len(data) in the
	// return) keeps the whole list alive for the job's duration.
	p := &Plan{input: mapreduce.TupleInput(data), card: len(data)}
	d := data.Dim()
	var err error
	if p.prep, err = prepareInput(&cfg, p.input, d, p.card); err != nil {
		return nil, err
	}
	return p, nil
}

// Algorithm selects the skyline job Plan.Run executes.
type Algorithm int

// The grid-partitioning algorithms.
const (
	AlgoGPSRS  Algorithm = iota // MR-GPSRS (Section 4)
	AlgoGPMRS                   // MR-GPMRS (Section 5)
	AlgoHybrid                  // Hybrid at DefaultHybridThreshold
)

// String returns the name Stats.Algorithm reports for an empty input.
func (a Algorithm) String() string {
	switch a {
	case AlgoGPSRS:
		return "MR-GPSRS"
	case AlgoGPMRS:
		return "MR-GPMRS"
	default:
		return "Hybrid"
	}
}

// compute is the one-shot run behind GPSRS, GPMRS and Hybrid: prepare, then
// the skyline job, with Stats.Total covering both.
func compute(cfg Config, data tuple.List, algo Algorithm, threshold int64) (tuple.List, *Stats, error) {
	start := time.Now()
	if len(data) == 0 {
		return nil, &Stats{Algorithm: algo.String()}, nil
	}
	plan, err := Prepare(cfg, data)
	if err != nil {
		return nil, nil, err
	}
	return plan.run(cfg, algo, threshold, start)
}

// Run executes algo's skyline job over the prepared dataset. cfg supplies
// what belongs to the query — Engine, Ctx, NumMappers, NumReducers, Kernel,
// Merge; the grid, its bounds and the PPD are the plan's. The
// Stats are those of a one-shot run over the same data (the bitstring
// phase's share is read from the job the plan kept) except the wall-clock
// fields: SkylineTime and Total measure this call only.
func (p *Plan) Run(cfg Config, algo Algorithm) (tuple.List, *Stats, error) {
	return p.run(cfg, algo, DefaultHybridThreshold, time.Now())
}

func (p *Plan) run(cfg Config, algo Algorithm, threshold int64, start time.Time) (tuple.List, *Stats, error) {
	switch algo {
	case AlgoGPSRS:
		return gpsrsRun(cfg, p.input, p.prep, start)
	case AlgoGPMRS:
		return gpmrsRun(cfg, p.input, p.prep, start)
	}
	prep := p.prep
	surviving := int64(prep.Bitstring.Count())
	var estWorkload int64
	if prep.NonEmpty > 0 {
		estWorkload = surviving * int64(p.card) / int64(prep.NonEmpty)
	}
	groups := prep.Grid.IndependentGroups(prep.Bitstring)
	useMulti := estWorkload > threshold && len(groups) >= 2 && cfg.reducers() > 1

	var (
		sky tuple.List
		st  *Stats
		err error
	)
	if useMulti {
		sky, st, err = gpmrsRun(cfg, p.input, prep, start)
	} else {
		sky, st, err = gpsrsRun(cfg, p.input, prep, start)
	}
	if err != nil {
		return nil, nil, err
	}
	st.Algorithm = "Hybrid(" + st.Algorithm + ")"
	return sky, st, nil
}
