package core

import (
	"time"

	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/tuple"
)

// Plan is the part of a grid skyline run over an in-memory dataset that
// does not depend on which skyline job follows, or on how often: the
// dataset's rows as the job input, and the grid and pruned global
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

// Prepare runs job 1 under cfg (Engine, Ctx, NumMappers, PPD, Lo/Hi,
// DisablePruning) over in, a non-empty dataset EncodeRows has checked and
// oriented, and keeps in as the input of every skyline job the plan runs.
func Prepare(cfg Config, in mapreduce.TupleRows) (*Plan, error) {
	p := &Plan{input: in, card: len(in)}
	var err error
	if p.prep, err = prepareInput(&cfg, p.input, len(in[0]), p.card); err != nil {
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

// compute is the one-shot run behind GPSRS, GPMRS and Hybrid: check data,
// prepare, then the skyline job, with Stats.Total covering
// all of it. The domain is cfg's Lo/Hi (the unit box when nil), not the
// data's bounds.
func compute(cfg Config, data tuple.List, algo Algorithm, threshold int64) (tuple.List, *Stats, error) {
	start := time.Now()
	if len(data) == 0 {
		return nil, &Stats{Algorithm: algo.String()}, nil
	}
	rows := make([][]float64, len(data))
	for i, t := range data {
		rows[i] = t
	}
	in, _, _, err := EncodeRows(rows, nil, false)
	if err != nil {
		return nil, nil, err
	}
	plan, err := Prepare(cfg, in)
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
	prep := p.prep
	var groups []grid.Group
	multi := algo == AlgoGPMRS
	if multi {
		groups = prep.Grid.IndependentGroups(prep.Bitstring)
	} else if algo == AlgoHybrid && cfg.reducers() > 1 {
		var estWorkload int64
		if prep.NonEmpty > 0 {
			estWorkload = int64(prep.Bitstring.Count()) * int64(p.card) / int64(prep.NonEmpty)
		}
		if estWorkload > threshold {
			groups = prep.Grid.IndependentGroups(prep.Bitstring)
			multi = len(groups) >= 2
		}
	}
	sky, st, err := skylineRun(cfg, p.input, prep, multi, groups, start)
	if err != nil || algo != AlgoHybrid {
		return sky, st, err
	}
	st.Algorithm = "Hybrid(" + st.Algorithm + ")"
	return sky, st, nil
}
