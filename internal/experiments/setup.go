// Package experiments regenerates the paper's evaluation (Section 7):
// one runner per figure, each producing the same rows/series the paper
// reports, measured on the simulated MapReduce substrate.
//
// Absolute runtimes are not comparable to the paper's Hadoop cluster; the
// harness reproduces the *shapes* — which algorithm wins where, how curves
// scale, and where crossovers fall. Cardinalities are scaled down by
// Setup.Scale so the full suite runs on a laptop; pass Scale = 1 for the
// paper's full parameters.
package experiments

import (
	"fmt"
	"os"
	"time"

	"mrskyline/internal/cluster"
	"mrskyline/internal/datagen"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/spill"
)

// Setup fixes the simulated cluster and sweep-independent parameters of an
// experiment run.
type Setup struct {
	// Nodes is the simulated cluster size; defaults to 13, the paper's
	// cluster ("a cluster of thirteen commodity machines").
	Nodes int
	// SlotsPerNode is the per-node task slot count; defaults to 2.
	SlotsPerNode int
	// Mappers is the map task count; 0 uses all slots.
	Mappers int
	// Reducers is the reduce task count for MR-GPMRS; 0 uses one per node,
	// the paper's default.
	Reducers int
	// PPD fixes the grid granularity; 0 lets the Section 3.3 job choose.
	PPD int
	// Seed makes data generation deterministic; defaults to 1.
	Seed int64
	// Scale multiplies the paper's cardinalities (0 < Scale ≤ 1);
	// defaults to DefaultScale. Scaled cardinalities are floored at 1000.
	Scale float64
	// SkipHeavy skips algorithm/workload combinations that the paper
	// itself reports as not terminating "in a reasonable period of time"
	// (single-reducer algorithms on high-dimensional anti-correlated
	// data); such cells appear as "DNF". Default true; see NoSkip.
	NoSkip bool
	// NoSim disables simulated-time accounting, reporting raw host
	// wall-clock instead. By default runtimes are simulated cluster
	// makespans (task durations scheduled over the cluster's slots plus a
	// 100 Mbit/s shuffle and Hadoop-style task/job overheads), which is
	// what the paper's runtime axes measure. The fixed costs are the
	// mapreduce.SimConfig defaults: 1s task startup, 5s job setup,
	// 12.5 MB/s links.
	NoSim bool
	// MeasureParallelism bounds how many tasks the engine measures
	// concurrently in simulated-time mode: 0 = min(GOMAXPROCS, cluster
	// slots) — the fast default for development sweeps — and 1 = strict
	// serial isolation, which publication runs (cmd/skyreport) use. See
	// mapreduce.SimConfig.MeasureParallelism.
	MeasureParallelism int
	// PaperCluster replaces the uniform Nodes×SlotsPerNode cluster with the
	// paper's exact heterogeneous machine mix (twelve 2.8 GHz nodes plus
	// one 2.13 GHz node), honouring SlotsPerNode.
	PaperCluster bool
	// FaultRate, when positive, runs every job under a deterministic
	// mapreduce.FaultPlan: the rate is used for per-attempt crashes,
	// per-node stragglers and shuffle-segment corruption, with speculative
	// execution enabled. Jobs then execute on the engine's virtual fault
	// clock, so results are reproducible bit-for-bit from FaultSeed.
	FaultRate float64
	// FaultSeed seeds the fault plan (only meaningful with FaultRate > 0);
	// 0 uses the data seed.
	FaultSeed int64
	// SpillBudget, when positive, runs every job through the
	// external-memory shuffle: map outputs spill to sorted run files under
	// SpillDir whenever more than SpillBudget bytes would sit resident, and
	// reduce inputs arrive through a multi-round merge at the spill
	// package's default fan-in. Zero keeps the all-in-RAM shuffle; results
	// are byte-identical either way.
	SpillBudget int64
	SpillDir    string
	// Trace, when non-nil, is attached to every engine the run builds:
	// spans from all jobs accumulate on its shared timeline (virtual-clock
	// jobs are serialized onto it via the tracer's virtual base), and
	// metrics land in its registry. Nil disables tracing.
	Trace *obs.Tracer
}

// DefaultScale is the default cardinality scale factor: 2×10⁶ becomes
// 4×10⁴, keeping every figure's full sweep within laptop minutes.
const DefaultScale = 0.02

func (s Setup) withDefaults() Setup {
	if s.Nodes == 0 {
		s.Nodes = 13
	}
	if s.SlotsPerNode == 0 {
		s.SlotsPerNode = 2
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Scale == 0 {
		s.Scale = DefaultScale
	}
	return s
}

// newEngine builds a fresh engine (fresh cluster) for one measurement, so
// runs never share scheduler state.
func (s Setup) newEngine() (*mapreduce.Engine, error) {
	var (
		c   *cluster.Cluster
		err error
	)
	if s.PaperCluster {
		c, err = cluster.Paper(s.SlotsPerNode)
	} else {
		c, err = cluster.Uniform(s.Nodes, s.SlotsPerNode)
	}
	if err != nil {
		return nil, err
	}
	eng := mapreduce.NewEngine(c)
	if !s.NoSim {
		eng.Sim = &mapreduce.SimConfig{MeasureParallelism: s.MeasureParallelism}
	}
	if s.FaultRate > 0 {
		seed := s.FaultSeed
		if seed == 0 {
			seed = s.Seed
		}
		eng.Faults = &mapreduce.FaultPlan{
			Seed:          seed,
			CrashRate:     s.FaultRate,
			StragglerRate: s.FaultRate,
			CorruptRate:   s.FaultRate,
			Speculative:   &mapreduce.SpeculativeConfig{},
		}
	}
	if s.SpillBudget > 0 {
		dir := s.SpillDir
		if dir == "" {
			dir = os.TempDir()
		}
		eng.Spill = &spill.Config{
			Dir:    dir,
			Budget: s.SpillBudget,
		}
	}
	eng.SetTrace(s.Trace)
	return eng, nil
}

// card scales one of the paper's cardinalities.
func (s Setup) card(paperCard int) int {
	c := int(float64(paperCard) * s.Scale)
	if c < 1000 {
		c = 1000
	}
	if c > paperCard {
		c = paperCard
	}
	return c
}

// dataset generates the experiment dataset for one point, deterministically
// from the setup seed and the point's shape.
func (s Setup) dataset(dist datagen.Distribution, paperCard, d int) (tupleList, int) {
	card := s.card(paperCard)
	seed := s.Seed + int64(dist)*1_000_003 + int64(card)*31 + int64(d)
	return datagen.Generate(dist, card, d, seed), card
}

// shouldSkip reproduces the paper's "cannot terminate in a reasonable
// period of time" exclusions at scaled size: single-reducer baselines on
// anti-correlated data of dimensionality ≥ 7 (Figures 8b/8d), and MR-GPSRS
// on anti-correlated d ≥ 8 at the highest cardinalities (Figure 9d).
func (s Setup) shouldSkip(algo string, dist datagen.Distribution, card, d int) bool {
	if s.NoSkip || dist != datagen.AntiCorrelated {
		return false
	}
	switch algo {
	case AlgoBNL, AlgoAngle:
		return d >= 7 && card >= 20_000
	case AlgoGPSRS:
		return d >= 8 && card >= 50_000
	default:
		return false
	}
}

// fmtDuration renders a runtime cell.
func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}
