package core

import (
	"encoding/json"
	"fmt"

	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/skyline"
)

// Every core job's task functions are pure functions of a small
// serializable parameter set: the grid is rebuilt from (d, ppd, bounds),
// the global bitstring travels in the distributed cache, and GPMRS group
// structure is recomputed in-task from that bitstring. The kinds
// registered here let rpcexec worker processes reconstruct the job's
// functions by calling the same …Funcs constructor the driver called, which
// is what makes process-executor output byte-identical to the in-process
// engine's. Every core job is stamped, so every core job can run on the
// process executor.

// Job kinds registered by this package.
const (
	KindBitstringGen = "core/bitstring-gen"
	KindPPDSelect    = "core/ppd-select"
	KindGPSRS        = "core/gpsrs"
	KindGPMRS        = "core/gpmrs"
)

func init() {
	mapreduce.RegisterKind(KindBitstringGen, buildBitstringKind)
	mapreduce.RegisterKind(KindPPDSelect, buildPPDSelectKind)
	mapreduce.RegisterKind(KindGPSRS, buildGPSRSKind)
	mapreduce.RegisterKind(KindGPMRS, buildGPMRSKind)
}

// gridSpec is a grid flattened to its construction parameters.
type gridSpec struct {
	D   int       `json:"d"`
	PPD int       `json:"ppd"`
	Lo  []float64 `json:"lo"`
	Hi  []float64 `json:"hi"`
}

func gridSpecOf(g *grid.Grid) gridSpec {
	return gridSpec{D: g.Dim(), PPD: g.PPD(), Lo: g.Lo(), Hi: g.Hi()}
}

func (s gridSpec) build() (*grid.Grid, error) {
	return grid.NewWithBounds(s.D, s.PPD, s.Lo, s.Hi)
}

// skySpec parametrizes the GPSRS/GPMRS skyline jobs.
type skySpec struct {
	Grid   gridSpec `json:"grid"`
	Kernel int      `json:"kernel"`
	Merge  int      `json:"merge,omitempty"` // GPMRS only
}

// bitstringSpec parametrizes the Algorithm 1–2 bitstring job.
type bitstringSpec struct {
	Grid           gridSpec `json:"grid"`
	DisablePruning bool     `json:"disablePruning,omitempty"`
}

// ppdSelectSpec parametrizes the Section 3.3 PPD-selection job.
type ppdSelectSpec struct {
	D              int       `json:"d"`
	Card           int       `json:"card"`
	Lo             []float64 `json:"lo,omitempty"`
	Hi             []float64 `json:"hi,omitempty"`
	Candidates     []int     `json:"candidates"`
	DisablePruning bool      `json:"disablePruning,omitempty"`
}

// markKind stamps a job with its kind and serialized spec, from which a
// worker process reconstructs its functions.
func markKind(job *mapreduce.Job, kind string, spec any) {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("core: marshalling %s spec: %v", kind, err)) // specs are plain data; cannot fail
	}
	job.Kind, job.Spec = kind, b
}

func buildGPSRSKind(spec []byte) (*mapreduce.JobFuncs, error) {
	var s skySpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return nil, fmt.Errorf("core: gpsrs spec: %w", err)
	}
	g, err := s.Grid.build()
	if err != nil {
		return nil, err
	}
	return gpsrsFuncs(&Config{Kernel: skyline.Kernel(s.Kernel)}, g), nil
}

func buildGPMRSKind(spec []byte) (*mapreduce.JobFuncs, error) {
	var s skySpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return nil, fmt.Errorf("core: gpmrs spec: %w", err)
	}
	g, err := s.Grid.build()
	if err != nil {
		return nil, err
	}
	return gpmrsFuncs(&Config{Kernel: skyline.Kernel(s.Kernel), Merge: grid.MergeStrategy(s.Merge)}, g), nil
}

func buildBitstringKind(spec []byte) (*mapreduce.JobFuncs, error) {
	var s bitstringSpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return nil, fmt.Errorf("core: bitstring spec: %w", err)
	}
	g, err := s.Grid.build()
	if err != nil {
		return nil, err
	}
	return bitstringFuncs(&Config{}, g, s.DisablePruning), nil
}

func buildPPDSelectKind(spec []byte) (*mapreduce.JobFuncs, error) {
	var s ppdSelectSpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return nil, fmt.Errorf("core: ppd-select spec: %w", err)
	}
	ladder, err := grid.NewLadder(s.D, s.Candidates, s.Lo, s.Hi)
	if err != nil {
		return nil, fmt.Errorf("core: ppd-select spec: %w", err)
	}
	return ppdSelectFuncs(&Config{}, s.Card, ladder, s.DisablePruning), nil
}
