package core

import (
	"encoding/json"
	"fmt"

	"mrskyline/internal/grid"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/skyline/window"
)

// Every core job's task functions are pure functions of a small
// serializable parameter set: the grid is rebuilt from (d, ppd, bounds),
// the global bitstring travels in the distributed cache, and the skyline
// job's buckets, formed once by the driver, travel in its spec. The kinds
// registered here let rpcexec worker processes reconstruct the job's
// functions by calling the same …Funcs constructor the driver called, which
// is what makes process-executor output byte-identical to the in-process
// engine's. Every core job is stamped, so every core job can run on the
// process executor.

// Job kinds registered by this package.
const (
	KindPPDSelect = "core/ppd-select"
	KindSkyline   = "core/skyline"
)

func init() {
	mapreduce.RegisterKind(KindPPDSelect, buildPPDSelectKind)
	mapreduce.RegisterKind(KindSkyline, buildSkylineKind)
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

// skySpec parametrizes the skyline job of MR-GPSRS and MR-GPMRS: the grid
// and the job's buckets, indexed by bucket ID.
type skySpec struct {
	Grid    gridSpec `json:"grid"`
	Buckets []bucket `json:"buckets"`
	// pool is the job's window pool, made by skyFuncs and never serialized.
	pool *window.Pool
}

// bucket is one reduce task's share of the skyline job: the partitions it
// receives and those it alone outputs (Section 5.4.2), both ascending.
type bucket struct {
	Parts   []int `json:"parts"`
	Outputs []int `json:"outputs"`
}

// ppdSelectSpec parametrizes the Section 3.3 PPD-selection job.
type ppdSelectSpec struct {
	D          int       `json:"d"`
	Card       int       `json:"card"`
	Lo         []float64 `json:"lo,omitempty"`
	Hi         []float64 `json:"hi,omitempty"`
	Candidates []int     `json:"candidates"`
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

func buildSkylineKind(spec []byte) (*mapreduce.JobFuncs, error) {
	var s skySpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return nil, fmt.Errorf("core: skyline spec: %w", err)
	}
	g, err := s.Grid.build()
	if err != nil {
		return nil, err
	}
	return skyFuncs(s, g), nil
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
	return ppdSelectFuncs(s.Card, ladder), nil
}
