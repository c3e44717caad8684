package core

import (
	"encoding/binary"
	"fmt"

	"mrskyline/internal/bitstring"
	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
)

// BitstringResult is the outcome of the bitstring-generation phase.
type BitstringResult struct {
	// Grid is the grid the bitstring indexes.
	Grid *grid.Grid
	// Bitstring is the pruned global bitstring (Equation 2), ready for the
	// distributed cache of the skyline job.
	Bitstring *bitstring.Bitstring
	// NonEmpty is the occupied-partition count before pruning.
	NonEmpty int
	// PPD is the grid's partitions-per-dimension.
	PPD int
	// AutoPPD reports whether the Section 3.3 job selected the PPD.
	AutoPPD bool
	// Job carries the MapReduce result (counters, timings).
	Job *mapreduce.Result
}

// BuildBitstring runs the bitstring generation of Section 3.2 (Algorithms
// 1–2) for a fixed grid: every mapper folds its split into a local
// occupancy bitstring, a single reducer ORs the local bitstrings into the
// global one and prunes dominated partitions.
//
// When disablePruning is set the reducer skips the Equation 2 step
// (ablation only).
func BuildBitstring(cfg *Config, g *grid.Grid, input mapreduce.Input, disablePruning bool) (*BitstringResult, error) {
	funcs := bitstringFuncs(cfg, g, disablePruning)
	job := &mapreduce.Job{
		Name:        "bitstring-gen",
		Input:       input,
		NumMappers:  cfg.mappers(),
		NumReducers: 1,
		NewMapper:   funcs.NewMapper,
		NewReducer:  funcs.NewReducer,
	}
	markKind(job, KindBitstringGen, bitstringSpec{Grid: gridSpecOf(g), DisablePruning: disablePruning})
	doneExch := cfg.Engine.WallTracer().Timed(obs.DriverTrack, "bitstring-exchange", obs.CatAlgo, "algo.bitstring_exchange.ns")
	res, err := cfg.Engine.RunContext(cfg.ctx(), job)
	doneExch()
	if err != nil {
		return nil, err
	}
	if len(res.Output) != 1 {
		return nil, fmt.Errorf("core: bitstring job produced %d outputs, want 1", len(res.Output))
	}
	bs, _, err := bitstring.Decode(res.Output[0].Value)
	if err != nil {
		return nil, fmt.Errorf("core: decoding global bitstring: %w", err)
	}
	return &BitstringResult{
		Grid:      g,
		Bitstring: bs,
		NonEmpty:  int(res.Counters.Get("bitstring.nonempty")),
		PPD:       g.PPD(),
		Job:       res,
	}, nil
}

// bitstringFuncs wires the bitstring job's task functions, for the driver
// and for the KindBitstringGen builder alike.
func bitstringFuncs(cfg *Config, g *grid.Grid, disablePruning bool) *mapreduce.JobFuncs {
	return &mapreduce.JobFuncs{
		NewMapper:  func() mapreduce.Mapper { return newBitstringMapper(cfg, g) },
		NewReducer: func() mapreduce.Reducer { return newBitstringReducer(g, disablePruning) },
	}
}

// newBitstringMapper builds an Algorithm 1 mapper: fold the split into a
// local occupancy bitstring, emitted on flush.
func newBitstringMapper(cfg *Config, g *grid.Grid) mapreduce.Mapper {
	local := bitstring.New(g.NumPartitions())
	decode := cfg.scratchDecoder(g.Dim())
	return mapreduce.MapperFuncs{
		MapFn: func(_ *mapreduce.TaskContext, rec mapreduce.Record, _ mapreduce.Emitter) error {
			t, err := decode(rec)
			if err != nil {
				return err
			}
			if len(t) != g.Dim() {
				return fmt.Errorf("core: tuple dimensionality %d does not match grid d=%d", len(t), g.Dim())
			}
			local.Set(g.Locate(t))
			return nil
		},
		FlushFn: func(_ *mapreduce.TaskContext, emit mapreduce.Emitter) error {
			emit(nil, local.Encode())
			return nil
		},
	}
}

// newBitstringReducer builds the Algorithm 2 reducer: OR the local
// bitstrings into the global one and prune dominated partitions.
func newBitstringReducer(g *grid.Grid, disablePruning bool) mapreduce.Reducer {
	global := bitstring.New(g.NumPartitions())
	return mapreduce.ReducerFuncs{
		ReduceFn: func(_ *mapreduce.TaskContext, _ []byte, values [][]byte, _ mapreduce.Emitter) error {
			for _, v := range values {
				local, _, err := bitstring.Decode(v)
				if err != nil {
					return err
				}
				global.Or(local)
			}
			return nil
		},
		FlushFn: func(ctx *mapreduce.TaskContext, emit mapreduce.Emitter) error {
			ctx.Counters.Add("bitstring.nonempty", int64(global.Count()))
			if !disablePruning {
				g.Prune(global)
			}
			ctx.Counters.Add("bitstring.surviving", int64(global.Count()))
			emit(nil, global.Encode())
			return nil
		},
	}
}

// ppdSelectFuncs wires the Section 3.3 PPD-selection job's task functions,
// for the driver and for the KindPPDSelect builder alike.
func ppdSelectFuncs(cfg *Config, card int, ladder *grid.Ladder, disablePruning bool) *mapreduce.JobFuncs {
	return &mapreduce.JobFuncs{
		NewMapper:  func() mapreduce.Mapper { return newPPDSelectMapper(cfg, ladder) },
		NewReducer: func() mapreduce.Reducer { return newPPDSelectReducer(card, ladder, disablePruning) },
	}
}

// newPPDSelectMapper builds the Section 3.3 mapper: one local occupancy
// bitstring per candidate PPD, emitted keyed by the candidate on flush. Each
// record is one pass: decode into the mapper's scratch tuple, locate it on
// the live levels of the ladder, set one bit per level.
//
// Levels are live until one fills. Once every bit of level j is set here,
// j's global bitstring is full too, so j scores exactly 0 and, ties going to
// the smaller PPD, no level above j can win: from then on the mapper locates
// on the levels below j only, and flushes levels 0…j, each complete.
func newPPDSelectMapper(cfg *Config, ladder *grid.Ladder) mapreduce.Mapper {
	locals := make([]*bitstring.Bitstring, ladder.Len())
	occupied := make([]int, ladder.Len())
	for i := range locals {
		locals[i] = bitstring.New(ladder.Grid(i).NumPartitions())
	}
	cells := make([]int, ladder.Len())
	live := ladder.Len() // levels still located; below Len, level live is full
	decode := cfg.scratchDecoder(ladder.Dim())
	return mapreduce.MapperFuncs{
		MapFn: func(_ *mapreduce.TaskContext, rec mapreduce.Record, _ mapreduce.Emitter) error {
			t, err := decode(rec)
			if err != nil {
				return err
			}
			if len(t) != ladder.Dim() {
				return fmt.Errorf("core: tuple dimensionality %d, want %d", len(t), ladder.Dim())
			}
			for i, p := range ladder.Locate(t, cells[:live]) {
				if locals[i].Get(p) {
					continue
				}
				locals[i].Set(p)
				if occupied[i]++; occupied[i] == locals[i].Len() {
					live = i
					break
				}
			}
			return nil
		},
		FlushFn: func(_ *mapreduce.TaskContext, emit mapreduce.Emitter) error {
			for i, local := range locals[:min(live+1, len(locals))] {
				emit(encodeKey(ladder.Grid(i).PPD()), local.Encode())
			}
			return nil
		},
	}
}

// newPPDSelectReducer builds the Section 3.3 reducer: merge each
// candidate's bitstrings, count ρ, pick the candidate minimizing
// |c/ρ − c/j^d|, prune the winner and emit uvarint(best) ++ bitstring. A
// candidate above a mapper's full level arrives without that mapper's bits,
// or not at all; it cannot win (see newPPDSelectMapper), so only the
// winner's bitstring needs to be complete, and it is.
func newPPDSelectReducer(card int, ladder *grid.Ladder, disablePruning bool) mapreduce.Reducer {
	merged := make([]*bitstring.Bitstring, ladder.Len()) // nil: candidate received nothing
	return mapreduce.ReducerFuncs{
		ReduceFn: func(_ *mapreduce.TaskContext, key []byte, values [][]byte, _ mapreduce.Emitter) error {
			j, err := decodeKey(key)
			if err != nil {
				return err
			}
			i, ok := ladder.Level(j)
			if !ok {
				return fmt.Errorf("core: unexpected PPD candidate %d", j)
			}
			global := bitstring.New(ladder.Grid(i).NumPartitions())
			for _, v := range values {
				local, _, err := bitstring.Decode(v)
				if err != nil {
					return err
				}
				global.Or(local)
			}
			merged[i] = global
			return nil
		},
		FlushFn: func(ctx *mapreduce.TaskContext, emit mapreduce.Emitter) error {
			rho := make(map[int]int, len(merged))
			for i, bs := range merged {
				if bs != nil {
					rho[ladder.Grid(i).PPD()] = bs.Count()
				}
			}
			// ChoosePPD answers 2 when no candidate has an occupied
			// partition; if 2 is not a level that received input, the
			// result is the coarsest level, empty.
			level, ok := ladder.Level(grid.ChoosePPD(card, ladder.Dim(), rho))
			if !ok || merged[level] == nil {
				level = 0
				merged[level] = bitstring.New(ladder.Grid(level).NumPartitions())
			}
			g, bs := ladder.Grid(level), merged[level]
			ctx.Counters.Add("bitstring.nonempty", int64(bs.Count()))
			if !disablePruning {
				g.Prune(bs)
			}
			ctx.Counters.Add("bitstring.surviving", int64(bs.Count()))
			payload := binary.AppendUvarint(nil, uint64(g.PPD()))
			payload = bs.AppendEncode(payload)
			emit(nil, payload)
			return nil
		},
	}
}

// ppdCandidates returns the candidate PPD series of Section 3.3 — the
// integers from 2 to nm — optionally thinned to at most maxCandidates
// values spread evenly across the range (endpoints always kept). A
// maxCandidates < 0 keeps the full series; 0 applies the default bound; 1
// has room for one endpoint only and keeps 2, the job's fallback PPD. The
// series is never empty.
func ppdCandidates(card, d, maxCandidates int) []int {
	nm := grid.MaxCandidatePPD(card, d, grid.MaxPartitions)
	full := make([]int, 0, nm-1)
	for j := 2; j <= nm; j++ {
		full = append(full, j)
	}
	if maxCandidates == 0 {
		maxCandidates = DefaultMaxPPDCandidates
	}
	if maxCandidates < 0 || len(full) <= maxCandidates {
		return full
	}
	if maxCandidates == 1 {
		return full[:1]
	}
	out := make([]int, 0, maxCandidates)
	seen := make(map[int]bool, maxCandidates)
	for i := 0; i < maxCandidates; i++ {
		// Even spacing over the index range keeps both endpoints.
		idx := i * (len(full) - 1) / (maxCandidates - 1)
		j := full[idx]
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	return out
}

// ChoosePPDAndBitstring runs the extended MapReduce flow of Section 3.3:
// mappers emit one local bitstring per candidate PPD, keyed by the
// candidate; the single reducer merges each candidate's bitstrings, counts
// non-empty partitions ρ, selects the candidate minimizing |c/ρ − c/j^d|,
// prunes the winning global bitstring and returns it. The separate
// bitstring-generation job becomes unnecessary: its work is subsumed here.
func ChoosePPDAndBitstring(cfg *Config, d, card int, input mapreduce.Input, disablePruning bool) (*BitstringResult, error) {
	candidates := ppdCandidates(card, d, cfg.MaxPPDCandidates)
	doneGrids := cfg.Engine.WallTracer().Timed(obs.DriverTrack, "grid-build", obs.CatAlgo, "algo.grid_build.ns")
	ladder, err := grid.NewLadder(d, candidates, cfg.Lo, cfg.Hi)
	doneGrids()
	if err != nil {
		return nil, err
	}

	funcs := ppdSelectFuncs(cfg, card, ladder, disablePruning)
	job := &mapreduce.Job{
		Name:        "ppd-select",
		Input:       input,
		NumMappers:  cfg.mappers(),
		NumReducers: 1,
		NewMapper:   funcs.NewMapper,
		NewReducer:  funcs.NewReducer,
	}
	markKind(job, KindPPDSelect, ppdSelectSpec{
		D: d, Card: card, Lo: cfg.Lo, Hi: cfg.Hi,
		Candidates: candidates, DisablePruning: disablePruning,
	})
	doneExch := cfg.Engine.WallTracer().Timed(obs.DriverTrack, "bitstring-exchange", obs.CatAlgo, "algo.bitstring_exchange.ns")
	res, err := cfg.Engine.RunContext(cfg.ctx(), job)
	doneExch()
	if err != nil {
		return nil, err
	}
	if len(res.Output) != 1 {
		return nil, fmt.Errorf("core: ppd job produced %d outputs, want 1", len(res.Output))
	}
	payload := res.Output[0].Value
	best, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("core: malformed ppd job output")
	}
	level, ok := ladder.Level(int(best))
	if !ok {
		return nil, fmt.Errorf("core: ppd job chose %d, not a candidate", best)
	}
	bs, _, err := bitstring.Decode(payload[n:])
	if err != nil {
		return nil, fmt.Errorf("core: decoding chosen bitstring: %w", err)
	}
	return &BitstringResult{
		Grid:      ladder.Grid(level),
		Bitstring: bs,
		NonEmpty:  int(res.Counters.Get("bitstring.nonempty")),
		PPD:       int(best),
		AutoPPD:   true,
		Job:       res,
	}, nil
}

// prepareInput resolves the grid + global bitstring for a skyline run over
// the encoded dataset: a fixed PPD uses the plain Algorithm 1–2 job, PPD 0
// the Section 3.3 selection job. card is the input cardinality.
func prepareInput(cfg *Config, input mapreduce.Input, d, card int) (*BitstringResult, error) {
	if err := cfg.validate(d); err != nil {
		return nil, err
	}
	if cfg.PPD != 0 {
		doneGrid := cfg.Engine.WallTracer().Timed(obs.DriverTrack, "grid-build", obs.CatAlgo, "algo.grid_build.ns")
		g, err := cfg.newGrid(d, cfg.PPD)
		doneGrid()
		if err != nil {
			return nil, err
		}
		return BuildBitstring(cfg, g, input, cfg.DisablePruning)
	}
	return ChoosePPDAndBitstring(cfg, d, card, input, cfg.DisablePruning)
}
