package mapreduce

import (
	"context"

	"mrskyline/internal/obs"
)

// Executor runs MapReduce jobs. It is the seam between the algorithms
// (core, baseline) and the execution substrate: the in-process Engine is
// the default backend — tasks are goroutines on a simulated cluster — and
// internal/rpcexec provides a second one, an Engine whose tasks are leased
// to real OS worker processes over net/rpc (NewLeasedEngine). Algorithms
// and the serving layer depend only on this interface.
type Executor interface {
	// RunContext executes the job under ctx; see Engine.RunContext for the
	// cancellation contract every backend honours (stop placing attempts,
	// drain in-flight work, return ctx's error).
	RunContext(ctx context.Context, job *Job) (*Result, error)
	// TotalSlots is the backend's concurrent task capacity; algorithms use
	// it as the default map task count.
	TotalSlots() int
	// NumNodes is the number of failure domains (simulated nodes, or worker
	// processes); algorithms use it as the default reducer count.
	NumNodes() int
	// WallTracer returns the tracer for driver-side wall-clock
	// instrumentation, nil when tracing is off or wall spans would pollute
	// a virtual-clock trace.
	WallTracer() *obs.Tracer
	// SetAdmission bounds concurrent RunContext calls and AdmissionStats
	// reads the controller back; see Engine.SetAdmission.
	SetAdmission(maxInFlight, maxQueued int)
	AdmissionStats() (inFlight, queued int)
}

// Engine implements Executor.
var _ Executor = (*Engine)(nil)

// TotalSlots returns the cluster-wide slot count.
func (e *Engine) TotalSlots() int { return e.cluster.TotalSlots() }

// NumNodes returns the simulated cluster's node count.
func (e *Engine) NumNodes() int { return len(e.cluster.Nodes()) }
