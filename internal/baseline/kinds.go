package baseline

import (
	"encoding/json"
	"fmt"

	"mrskyline/internal/mapreduce"
	"mrskyline/internal/tuple"
)

// The job kinds of the single-reducer baselines. Each job's routing and
// global merge are pure functions of plain data — (d, mid) for MR-BNL's
// half-spaces, (d, target, origin) for MR-Angle's angular grid — so worker
// processes reconstruct the job's functions with the call the driver made.
// Every baseline job has a kind.
const (
	KindHalfspace = "baseline/halfspace"
	KindAngle     = "baseline/angle"
)

func init() {
	mapreduce.RegisterKind(KindHalfspace, buildHalfspaceKind)
	mapreduce.RegisterKind(KindAngle, buildAngleKind)
}

// halfspaceSpec parametrizes the MR-BNL job.
type halfspaceSpec struct {
	D   int       `json:"d"`
	Mid []float64 `json:"mid"`
}

// angleSpec parametrizes the MR-Angle job.
type angleSpec struct {
	D      int       `json:"d"`
	Target int       `json:"target"`
	Origin []float64 `json:"origin"`
}

// specBytes serializes a spec; specs are plain data, so marshalling cannot
// fail.
func specBytes(spec any) []byte {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("baseline: marshalling job spec: %v", err))
	}
	return b
}

func buildHalfspaceKind(spec []byte) (*mapreduce.JobFuncs, error) {
	var s halfspaceSpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return nil, fmt.Errorf("baseline: halfspace spec: %w", err)
	}
	if len(s.Mid) != s.D {
		return nil, fmt.Errorf("baseline: halfspace spec mid has %d dims, want %d", len(s.Mid), s.D)
	}
	return halfspaceFuncs(s.D, s.Mid), nil
}

func buildAngleKind(spec []byte) (*mapreduce.JobFuncs, error) {
	var s angleSpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return nil, fmt.Errorf("baseline: angle spec: %w", err)
	}
	if len(s.Origin) != s.D {
		return nil, fmt.Errorf("baseline: angle spec origin has %d dims, want %d", len(s.Origin), s.D)
	}
	return angleFuncs(newAnglePartitioner(s.D, s.Target, s.Origin)), nil
}

// halfspaceFuncs wires the MR-BNL job's task functions, for the driver and
// for the KindHalfspace builder alike.
func halfspaceFuncs(d int, mid []float64) *mapreduce.JobFuncs {
	return singleReducerFuncs(d, func(t tuple.Tuple) int { return subspaceOf(t, mid) }, halfspaceFinish)
}

// angleFuncs wires the MR-Angle job's task functions, for the driver and
// for the KindAngle builder alike.
func angleFuncs(ap *anglePartitioner) *mapreduce.JobFuncs {
	return singleReducerFuncs(ap.d, ap.locate, ap.finish)
}
