package baseline

import (
	"encoding/json"
	"fmt"

	"mrskyline/internal/mapreduce"
	"mrskyline/internal/tuple"
)

// KindHalfspace is the job kind of the MR-BNL half-space job: the
// subspace routing and the cross-subspace merge are pure functions of
// (d, mid), so worker processes reconstruct the job's functions
// with the halfspaceFuncs call the driver made. MR-Angle and SKY-MR jobs
// are not stamped with a kind and stay in-process-only.
const KindHalfspace = "baseline/halfspace"

func init() {
	mapreduce.RegisterKind(KindHalfspace, buildHalfspaceKind)
}

// halfspaceSpec parametrizes the MR-BNL job.
type halfspaceSpec struct {
	D   int       `json:"d"`
	Mid []float64 `json:"mid"`
}

// halfspaceSpecBytes serializes the spec; specs are plain data, so
// marshalling cannot fail.
func halfspaceSpecBytes(d int, mid []float64) []byte {
	b, err := json.Marshal(halfspaceSpec{D: d, Mid: mid})
	if err != nil {
		panic(fmt.Sprintf("baseline: marshalling halfspace spec: %v", err))
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

// halfspaceFuncs wires the MR-BNL job's task functions, for the driver and
// for the KindHalfspace builder alike.
func halfspaceFuncs(d int, mid []float64) *mapreduce.JobFuncs {
	return singleReducerFuncs(d, func(t tuple.Tuple) int { return subspaceOf(t, mid) }, halfspaceFinish)
}
