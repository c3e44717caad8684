// Package rpcexec is the multi-process execution backend: the fleet of a
// leased mapreduce.Engine. A master inside the driver process serves net/rpc
// on loopback, and workers are real OS processes (the same binary re-exec'd
// through WorkerMain) that register, heartbeat, pull task leases, execute
// map/reduce attempts via the mapreduce kind registry, and serve their map
// output to peer workers for the shuffle. Jobs, attempts and their recovery
// are the engine's; transport, liveness and the data plane are this
// package's. See DESIGN.md §12.
package rpcexec

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"mrskyline/internal/mapreduce"
)

// Lease kinds returned by Master.Lease.
const (
	// LeaseNone: no runnable task right now; poll again.
	LeaseNone = "none"
	// LeaseMap carries a map task: Split holds the framed input records.
	LeaseMap = "map"
	// LeaseReduce carries a reduce task: Sources lists where to fetch each
	// map task's output segment for this reducer.
	LeaseReduce = "reduce"
	// LeaseExit tells the worker to shut down cleanly.
	LeaseExit = "exit"
)

// RegisterArgs announces a freshly started worker to the master.
type RegisterArgs struct {
	// Addr is the worker's own RPC listener (peers fetch shuffle segments
	// from it).
	Addr string
	// PID is the worker's OS process id; tests use it for process-table
	// assertions and Close uses it as the kill target of last resort.
	PID int
	// Index is the worker's spawn index (worker-<Index> in task records).
	Index int
}

// RegisterReply assigns the worker its id and its polling cadence, so all
// timing configuration lives in one place (the executor config).
type RegisterReply struct {
	WorkerID         int
	HeartbeatEveryNs int64
	LeasePollEveryNs int64
}

// HeartbeatArgs is the periodic liveness beacon. PrevRTTNs is the
// worker-measured round-trip time of its previous heartbeat call (0 on the
// first), which the master feeds into the rpc.heartbeat.rtt.ns histogram.
type HeartbeatArgs struct {
	WorkerID  int
	PrevRTTNs int64
}

// HeartbeatReply piggybacks control signals on the heartbeat: Exit asks
// the worker to shut down, DropJobs lists jobs whose shuffle segments the
// worker may evict from its output store.
type HeartbeatReply struct {
	Exit     bool
	DropJobs []int64
}

// LeaseArgs requests a task lease.
type LeaseArgs struct {
	WorkerID int
}

// MapSource locates one map task's output segment for a reducer: which
// worker holds it, the address to fetch it from, and the checksum and size
// the fetched bytes must match. Sources with zero bytes are omitted from
// leases entirely.
type MapSource struct {
	MapTask  int
	WorkerID int
	Addr     string
	Checksum uint64
	Bytes    int64
}

// LeaseReply is one granted task (or none/exit).
type LeaseReply struct {
	Kind    string
	JobID   int64
	TaskID  int
	Attempt int
	// Split is the map task's framed input records (LeaseMap only).
	Split []byte
	// Sources lists the reduce task's input segments in ascending MapTask
	// order (LeaseReduce only).
	Sources []MapSource
}

// JobInfoArgs fetches a job's static description, cached worker-side so a
// job's kind, spec and distributed cache cross the wire once per worker
// rather than once per lease.
type JobInfoArgs struct {
	JobID int64
}

// JobInfoReply is the static half of a job.
type JobInfoReply struct {
	Name        string
	Kind        string
	Spec        []byte
	Cache       mapreduce.Cache
	NumMappers  int
	NumReducers int
}

// MapDoneArgs reports one map attempt. On success the output segments stay
// in the worker's memory — only their per-reducer checksums and sizes
// travel — and the master records the worker as the output's location. On
// failure Err carries the task error.
type MapDoneArgs struct {
	WorkerID int
	JobID    int64
	TaskID   int
	Attempt  int
	Err      string
	// Checksums and Bytes describe the per-reducer segments (index =
	// reducer); empty segments have Bytes 0.
	Checksums []uint64
	Bytes     []int64
	Counters  mapreduce.CounterDump
}

// ReduceDoneArgs reports one reduce attempt with its framed output.
type ReduceDoneArgs struct {
	WorkerID int
	JobID    int64
	TaskID   int
	Attempt  int
	Err      string
	// FetchFailedWorker is -1 normally; when >= 0 the attempt aborted
	// because that peer could not serve a segment (connection refused or
	// checksum mismatch after refetch) — evidence of worker death the
	// master acts on immediately instead of waiting out the heartbeat
	// timeout, and grounds for recording the attempt as killed rather than
	// failed.
	FetchFailedWorker int
	// Output is the reduce task's framed output records.
	Output   []byte
	Counters mapreduce.CounterDump
	// PayloadBytes is the key+value volume of the attempt's shuffle input
	// (the in-process engine's CounterShuffleBytes quantity); WireBytes is
	// the subset that actually crossed the network (peer fetches);
	// Refetches counts checksum-mismatch refetches.
	PayloadBytes int64
	WireBytes    int64
	Refetches    int64
}

// Empty is the reply type of fire-and-forget RPCs.
type Empty struct{}

// FetchArgs asks a worker for one of its map output segments.
type FetchArgs struct {
	JobID   int64
	MapTask int
	Reduce  int
}

// FetchReply carries the framed segment (nil when empty).
type FetchReply struct {
	Seg []byte
}

// ---------------------------------------------------------------------------
// Chaos specs

// Chaos events a worker can be told to die at.
const (
	// ChaosMap: SIGKILL self at the start of a map task body.
	ChaosMap = "map"
	// ChaosReduce: SIGKILL self after fetching a reduce task's input, before
	// running the reducer.
	ChaosReduce = "reduce"
	// ChaosFetch: SIGKILL self just before issuing a peer shuffle fetch (the
	// fetching side dies mid-shuffle).
	ChaosFetch = "fetch"
	// ChaosServe: SIGKILL self on receiving a peer's Fetch RPC (the serving
	// side dies mid-shuffle, taking its map outputs with it).
	ChaosServe = "serve"
	// ChaosCorrupt: do not die — serve one peer Fetch with a single byte
	// flipped in the reply. The fetcher's checksum verification must catch
	// it and refetch; the stored segment itself stays pristine.
	ChaosCorrupt = "corrupt"
)

// chaosSpec is a parsed worker chaos directive: die by SIGKILL on the
// nth occurrence of event. The zero value never fires. hits is atomic
// because the serve hook fires on RPC-serving goroutines while the task
// hooks fire on the lease loop.
type chaosSpec struct {
	event string
	nth   int32
	hits  atomic.Int32
}

// parseChaos parses "event" or "event:n" (n >= 1, default 1).
func parseChaos(s string) (*chaosSpec, error) {
	spec := &chaosSpec{}
	if s == "" {
		return spec, nil
	}
	event, nthStr, hasNth := strings.Cut(s, ":")
	spec.event, spec.nth = event, 1
	if hasNth {
		n, err := strconv.Atoi(nthStr)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("rpcexec: bad chaos count in %q", s)
		}
		spec.nth = int32(n)
	}
	switch event {
	case ChaosMap, ChaosReduce, ChaosFetch, ChaosServe, ChaosCorrupt:
		return spec, nil
	}
	return nil, fmt.Errorf("rpcexec: unknown chaos event %q", event)
}

// maybeKill SIGKILLs the process if this occurrence of event is the
// configured one. A SIGKILL cannot be caught or cleaned up after — exactly
// the failure mode the lease/heartbeat machinery must absorb.
func (c *chaosSpec) maybeKill(event string) {
	if c.event != event {
		return
	}
	if c.hits.Add(1) == c.nth {
		selfKill()
	}
}

// takeCorrupt reports whether this serve should corrupt its reply: true
// exactly once, on the nth ChaosCorrupt occurrence.
func (c *chaosSpec) takeCorrupt() bool {
	if c.event != ChaosCorrupt {
		return false
	}
	return c.hits.Add(1) == c.nth
}

// workerNode names worker i the way task records and trace tracks see it.
func workerNode(i int) string { return "worker-" + strconv.Itoa(i) }
