package core

import (
	"encoding/binary"
	"fmt"

	"mrskyline/internal/bitstring"
	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
)

// BitstringResult is the outcome of job 1, the Section 3.3 job.
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
	// AutoPPD reports whether the job chose the PPD among the candidate
	// series (Config.PPD 0) rather than running the one fixed PPD.
	AutoPPD bool
	// Job carries the MapReduce result (counters, timings).
	Job *mapreduce.Result
}

// ppdSelectFuncs wires the Section 3.3 PPD-selection job's task functions,
// for the driver and for the KindPPDSelect builder alike.
func ppdSelectFuncs(card int, ladder *grid.Ladder) *mapreduce.JobFuncs {
	return &mapreduce.JobFuncs{
		NewMapper:  func() mapreduce.Mapper { return newPPDSelectMapper(ladder) },
		NewReducer: func() mapreduce.Reducer { return newPPDSelectReducer(card, ladder) },
	}
}

// newPPDSelectMapper builds the Section 3.3 mapper: one local occupancy
// bitstring per candidate PPD, emitted keyed by the candidate on flush. Each
// row of its split is one pass: locate it on the live levels of the ladder,
// set one bit per level.
//
// Levels are live until one fills. Once every bit of level j is set here,
// j's global bitstring is full too, so j scores exactly 0 and, ties going to
// the smaller PPD, no level above j can win: from then on the mapper locates
// on the levels below j only, and flushes levels 0…j, each complete. On a
// one-level ladder (a fixed PPD) a full level only stops the locating: its
// bits are all set already. Once level 0 is full nothing is located at all,
// and the mapper stops reading its split.
func newPPDSelectMapper(ladder *grid.Ladder) mapreduce.Mapper {
	locals := make([]*bitstring.Bitstring, ladder.Len())
	occupied := make([]int, ladder.Len())
	for i := range locals {
		locals[i] = bitstring.New(ladder.Grid(i).NumPartitions())
	}
	cells := make([]int, ladder.Len())
	live := ladder.Len() // levels still located; below Len, level live is full
	return mapreduce.RowsMapperFuncs{
		MapRowsFn: func(_ *mapreduce.TaskContext, rows [][]float64, _ mapreduce.Emitter) error {
			if len(rows[0]) != ladder.Dim() {
				return fmt.Errorf("core: tuple dimensionality %d, want %d", len(rows[0]), ladder.Dim())
			}
			for r := 0; r < len(rows) && live > 0; r++ {
				for i, p := range ladder.Locate(rows[r], cells[:live]) {
					if locals[i].Get(p) {
						continue
					}
					locals[i].Set(p)
					if occupied[i]++; occupied[i] == locals[i].Len() {
						live = i
						break
					}
				}
			}
			return nil
		},
		FlushFn: func(_ *mapreduce.TaskContext, emit mapreduce.Emitter) error {
			for i, local := range locals[:min(live+1, len(locals))] {
				emit(mapreduce.IntKey(ladder.Grid(i).PPD()), local.Encode())
			}
			return nil
		},
	}
}

// newPPDSelectReducer builds the Section 3.3 reducer: merge each
// candidate's bitstrings, count ρ, pick the candidate minimizing
// |c/ρ − c/j^d| and emit uvarint(best) ++ its occupancy bitstring. A
// candidate above a mapper's full level arrives without that mapper's bits,
// or not at all; it cannot win (see newPPDSelectMapper), so only the
// winner's bitstring needs to be complete, and it is.
func newPPDSelectReducer(card int, ladder *grid.Ladder) mapreduce.Reducer {
	merged := make([]*bitstring.Bitstring, ladder.Len()) // nil: candidate received nothing
	return mapreduce.ReducerFuncs{
		ReduceFn: func(_ *mapreduce.TaskContext, key []byte, values [][]byte, _ mapreduce.Emitter) error {
			j, err := mapreduce.ParseIntKey(key)
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
		FlushFn: func(_ *mapreduce.TaskContext, emit mapreduce.Emitter) error {
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
			payload := binary.AppendUvarint(nil, uint64(ladder.Grid(level).PPD()))
			payload = merged[level].AppendEncode(payload)
			emit(nil, payload)
			return nil
		},
	}
}

// DefaultMaxPPDCandidates bounds the candidate series of the Section 3.3
// job. The paper's mappers build one bitstring for every integer in
// [2, c^(1/d)], which is quadratic-plus memory at high cardinality.
const DefaultMaxPPDCandidates = 16

// ppdCandidates returns the candidate PPD series of Section 3.3 — the
// integers from 2 to nm — thinned to at most DefaultMaxPPDCandidates values
// spread evenly across the range (endpoints always kept). The series is
// never empty.
func ppdCandidates(card, d int) []int {
	nm := grid.MaxCandidatePPD(card, d, grid.MaxPartitions)
	full := make([]int, 0, nm-1)
	for j := 2; j <= nm; j++ {
		full = append(full, j)
	}
	if len(full) <= DefaultMaxPPDCandidates {
		return full
	}
	out := make([]int, DefaultMaxPPDCandidates)
	for i := range out {
		// The index step exceeds 1, so the spacing keeps both endpoints
		// and repeats no candidate.
		out[i] = full[i*(len(full)-1)/(DefaultMaxPPDCandidates-1)]
	}
	return out
}

// ChoosePPDAndBitstring runs job 1, the extended MapReduce flow of Section
// 3.3: mappers emit one local bitstring per candidate PPD, keyed by the
// candidate; the single reducer merges each candidate's bitstrings, counts
// non-empty partitions ρ and selects the candidate minimizing |c/ρ − c/j^d|;
// the driver prunes the winner's global bitstring (Equation 2, unless
// disablePruning) and returns it. PPD 0 runs the
// candidate series. A fixed cfg.PPD p is the one candidate: grid.ChoosePPD
// over {p: ρ} answers p whenever ρ ≥ 1, so the job is the bitstring
// generation of Section 3.2 (Algorithms 1–2) with each mapper's bitstring
// keyed by p, and no separate job is needed for it.
func ChoosePPDAndBitstring(cfg *Config, d, card int, input mapreduce.Input, disablePruning bool) (*BitstringResult, error) {
	candidates := []int{cfg.PPD}
	if cfg.PPD == 0 {
		candidates = ppdCandidates(card, d)
	}
	doneGrids := cfg.Engine.WallTracer().Timed(obs.DriverTrack, "grid-build", obs.CatAlgo, "algo.grid_build.ns")
	ladder, err := grid.NewLadder(d, candidates, cfg.Lo, cfg.Hi)
	doneGrids()
	if err != nil {
		return nil, err
	}

	funcs := ppdSelectFuncs(card, ladder)
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
		Candidates: candidates,
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
	nonEmpty := bs.Count()
	if !disablePruning {
		ladder.Grid(level).Prune(bs)
	}
	return &BitstringResult{
		Grid:      ladder.Grid(level),
		Bitstring: bs,
		NonEmpty:  nonEmpty,
		PPD:       int(best),
		AutoPPD:   cfg.PPD == 0,
		Job:       res,
	}, nil
}

// prepareInput resolves the grid + global bitstring for a skyline run over
// the input dataset with job 1. card is the input cardinality.
func prepareInput(cfg *Config, input mapreduce.Input, d, card int) (*BitstringResult, error) {
	if err := cfg.validate(d); err != nil {
		return nil, err
	}
	return ChoosePPDAndBitstring(cfg, d, card, input, cfg.DisablePruning)
}
