package experiments

import (
	"fmt"
	"time"

	"mrskyline/internal/baseline"
	"mrskyline/internal/core"
	"mrskyline/internal/grid"
	"mrskyline/internal/skyline"
	"mrskyline/internal/tuple"
)

// tupleList aliases the tuple list type to keep signatures short here.
type tupleList = tuple.List

// Algorithm names accepted by RunAlgorithm and the figure runners.
const (
	AlgoGPSRS  = "MR-GPSRS"
	AlgoGPMRS  = "MR-GPMRS"
	AlgoBNL    = "MR-BNL"
	AlgoAngle  = "MR-Angle"
	AlgoSKYMR  = "SKY-MR"
	AlgoHybrid = "Hybrid"
)

// PaperAlgorithms returns the four algorithms the paper's figures compare.
func PaperAlgorithms() []string {
	return []string{AlgoGPSRS, AlgoGPMRS, AlgoBNL, AlgoAngle}
}

// AllAlgorithms returns every implemented algorithm: the paper's four, the
// SKY-MR extension and the future-work Hybrid.
func AllAlgorithms() []string {
	return []string{AlgoGPSRS, AlgoGPMRS, AlgoBNL, AlgoAngle, AlgoSKYMR, AlgoHybrid}
}

// Measurement is one algorithm execution on one dataset.
type Measurement struct {
	Algo string
	// Runtime is the simulated cluster makespan when the setup runs with
	// simulation (the default), or host wall-clock with Setup.NoSim.
	Runtime     time.Duration
	SkylineSize int
	// PPD is the grid granularity used (grid algorithms only).
	PPD int
	// MapperPartCmp / ReducerPartCmp are the busiest task's partition-wise
	// comparison counts (grid algorithms only; Figure 11).
	MapperPartCmp  int64
	ReducerPartCmp int64
	ShuffleBytes   int64
}

// measureOpts tweaks a single run beyond the Setup defaults.
type measureOpts struct {
	reducers       int
	kernel         skyline.Kernel
	merge          grid.MergeStrategy
	disablePruning bool
	ppdOverride    int // -1: keep setup; ≥0: use this value
}

func defaultMeasureOpts() measureOpts { return measureOpts{ppdOverride: -1} }

// runAlgorithm executes one named algorithm on data and returns its
// measurement. Every call builds a fresh engine so runs are independent.
func runAlgorithm(name string, s Setup, data tupleList, opts measureOpts) (Measurement, error) {
	eng, err := s.newEngine()
	if err != nil {
		return Measurement{}, err
	}
	reducers := opts.reducers
	if reducers == 0 {
		reducers = s.Reducers
	}
	ppd := s.PPD
	if opts.ppdOverride >= 0 {
		ppd = opts.ppdOverride
	}

	switch name {
	case AlgoGPSRS, AlgoGPMRS, AlgoHybrid:
		cfg := core.Config{
			Engine:         eng,
			NumMappers:     s.Mappers,
			NumReducers:    reducers,
			PPD:            ppd,
			Kernel:         opts.kernel,
			Merge:          opts.merge,
			DisablePruning: opts.disablePruning,
		}
		var (
			st  *core.Stats
			err error
		)
		switch name {
		case AlgoGPSRS:
			_, st, err = core.GPSRS(cfg, data)
		case AlgoGPMRS:
			_, st, err = core.GPMRS(cfg, data)
		default:
			_, st, err = core.Hybrid(cfg, data)
		}
		if err != nil {
			return Measurement{}, fmt.Errorf("experiments: %s: %w", name, err)
		}
		runtime := st.Total
		if st.SimulatedTotal > 0 {
			runtime = st.SimulatedTotal
		}
		return Measurement{
			Algo:           st.Algorithm,
			Runtime:        runtime,
			SkylineSize:    st.SkylineSize,
			PPD:            st.PPD,
			MapperPartCmp:  st.MapperPartCmpMax,
			ReducerPartCmp: st.ReducerPartCmpMax,
			ShuffleBytes:   st.ShuffleBytes,
		}, nil

	case AlgoBNL, AlgoAngle, AlgoSKYMR:
		cfg := baseline.Config{Engine: eng, NumMappers: s.Mappers}
		var (
			st  *baseline.Stats
			err error
		)
		switch name {
		case AlgoBNL:
			_, st, err = baseline.MRBNL(cfg, data)
		case AlgoSKYMR:
			_, st, err = baseline.SKYMR(cfg, data)
		default:
			_, st, err = baseline.MRAngle(cfg, data)
		}
		if err != nil {
			return Measurement{}, fmt.Errorf("experiments: %s: %w", name, err)
		}
		runtime := st.Total
		if st.SimulatedTotal > 0 {
			runtime = st.SimulatedTotal
		}
		return Measurement{
			Algo:         st.Algorithm,
			Runtime:      runtime,
			SkylineSize:  st.SkylineSize,
			ShuffleBytes: st.ShuffleBytes,
		}, nil

	default:
		return Measurement{}, fmt.Errorf("experiments: unknown algorithm %q", name)
	}
}

// RunAlgorithm executes one named algorithm with default options; it is the
// entry point CLI tools use for one-off measurements.
func RunAlgorithm(name string, s Setup, data tupleList) (Measurement, error) {
	return runAlgorithm(name, s.withDefaults(), data, defaultMeasureOpts())
}
