package mrskyline

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"mrskyline/internal/cluster"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/spill"
	"mrskyline/internal/wal"
)

// ErrOverloaded is returned by Service queries rejected because the
// admission queue is full. Test with errors.Is.
var ErrOverloaded = mapreduce.ErrQueueFull

// ServiceConfig shapes a Service. The zero value is ready to use.
type ServiceConfig struct {
	// Executor, when non-nil, runs every query instead of a fresh
	// in-process simulated cluster — e.g. rpcexec's multi-process backend.
	// Nodes and SlotsPerNode are then ignored (the executor has its own
	// shape), and the Service takes ownership: it installs its admission
	// bounds on the executor and Close shuts it down.
	Executor mapreduce.Executor
	// Nodes is the simulated cluster size (default 8).
	Nodes int
	// SlotsPerNode is the per-node concurrent task count (default 2).
	SlotsPerNode int
	// MaxInFlight is the number of MapReduce jobs admitted concurrently
	// (default 4). Queries beyond it queue FIFO.
	MaxInFlight int
	// MaxQueue bounds the admission queue (default 64). Negative means
	// reject immediately whenever all in-flight slots are busy.
	MaxQueue int
	// QueryTimeout is the per-query deadline (default none). It covers
	// queue wait and execution; an expired query returns the context
	// error.
	QueryTimeout time.Duration
	// SpillBudget, when positive, runs every query through the
	// external-memory shuffle: map-output bytes beyond the budget spill to
	// sorted run files under SpillDir (default: the system temp dir) and
	// merge back in bounded memory. Zero keeps the all-in-RAM shuffle;
	// skylines are byte-identical either way. Ignored when an external
	// Executor is supplied (configure spilling on the executor instead).
	SpillBudget int64
	SpillDir    string
	// WALSync, WALSyncInterval and WALCheckpointEvery are the write-ahead
	// log policy of every durable maintained handle (MaintainOptions.DataDir
	// set) opened or restored through this Service. WALSync selects when
	// the log is fsynced: "always" (before every acknowledged batch; the
	// default when empty), "batch" (group commit: a background syncer
	// fsyncs acknowledged batches, coalescing bursts) or "interval" (every
	// WALSyncInterval, default 50ms; a crash loses at most one interval of
	// acknowledged batches). WALCheckpointEvery triggers a background
	// checkpoint after that many logged batches (default 256; negative
	// disables automatic checkpoints, and Close still writes a final one).
	// They do not affect memory-only handles.
	WALSync            string
	WALSyncInterval    time.Duration
	WALCheckpointEvery int
}

// Service executes skyline queries on one long-lived simulated cluster —
// the serving-layer counterpart of the one-shot Compute functions, which
// build a fresh cluster per call. Queries go through Dataset handles
// (Service.Compute makes one for the rows of its request). Concurrent
// queries share the cluster's task slots and pass through a FIFO admission
// controller; admission decisions and queue waits are recorded in the
// service's metrics registry (the mr.queue.* series).
//
// Queries validate arguments exactly like the package-level functions.
// Options.Nodes and Options.SlotsPerNode are ignored: the cluster shape is
// fixed at NewService time.
//
// All methods are safe for concurrent use.
type Service struct {
	exec    mapreduce.Executor
	cluster *cluster.Cluster // the simulated cluster; nil when an external Executor was supplied
	trace   *obs.Tracer
	timeout time.Duration
	wal     wal.Options // every durable maintained handle's
}

// NewService builds a Service on a fresh simulated cluster, or on
// cfg.Executor when one is supplied.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.QueryTimeout < 0 {
		return nil, fmt.Errorf("mrskyline: QueryTimeout must be ≥ 0, got %v", cfg.QueryTimeout)
	}
	if err := spill.ValidateSetup(cfg.SpillBudget, cfg.SpillDir); err != nil {
		return nil, fmt.Errorf("mrskyline: %w", err)
	}
	walOpts := wal.Options{SyncEvery: cfg.WALSyncInterval, CheckpointEvery: cfg.WALCheckpointEvery}
	if cfg.WALSync != "" {
		var err error
		if walOpts.Sync, err = wal.ParseSyncMode(cfg.WALSync); err != nil {
			return nil, fmt.Errorf("mrskyline: %w", err)
		}
	}
	if cfg.WALSyncInterval < 0 {
		return nil, fmt.Errorf("mrskyline: WALSyncInterval must be ≥ 0, got %v", cfg.WALSyncInterval)
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = 4
	}
	if maxInFlight < 0 {
		return nil, fmt.Errorf("mrskyline: MaxInFlight must be ≥ 0, got %d", cfg.MaxInFlight)
	}
	maxQueue := cfg.MaxQueue
	switch {
	case maxQueue == 0:
		maxQueue = 64
	case maxQueue < 0:
		maxQueue = 0
	}
	s := &Service{exec: cfg.Executor, timeout: cfg.QueryTimeout, wal: walOpts}
	if s.exec != nil {
		s.trace = s.exec.WallTracer()
	} else {
		eng, err := newEngine(Options{Nodes: cfg.Nodes, SlotsPerNode: cfg.SlotsPerNode, SpillBudget: cfg.SpillBudget, SpillDir: cfg.SpillDir})
		if err != nil {
			return nil, err
		}
		// Metrics only: a Service never reads a span back, and a retained
		// span log would grow with every task of every query for the
		// daemon's life.
		s.trace = obs.NewMetricsOnly()
		eng.SetTrace(s.trace)
		s.exec, s.cluster = eng, eng.Cluster()
	}
	s.exec.SetAdmission(maxInFlight, maxQueue)
	s.wal.Metrics = s.trace.Metrics()
	return s, nil
}

// Close releases the service's executor. With an external Executor that
// implements io.Closer (rpcexec's multi-process backend does), its worker
// processes are shut down; the default in-process engine needs no cleanup.
// The Service must not be used after Close.
func (s *Service) Close() error {
	if c, ok := s.exec.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// queryCtx applies the service deadline. Without one, a context that can
// never end (the package-level functions' context.Background) is used as
// is: a cancelable wrapper would only make every job phase start a
// cancellation watcher (cluster.Run) for a cancel that comes after the
// jobs have returned.
func (s *Service) queryCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch {
	case s.timeout > 0:
		return context.WithTimeout(ctx, s.timeout)
	case ctx.Done() == nil:
		return ctx, func() {}
	}
	return context.WithCancel(ctx)
}

// Compute is the Service counterpart of the package-level Compute over
// rows sent with the request: s.Dataset(data).Compute(ctx, opts).
func (s *Service) Compute(ctx context.Context, data [][]float64, opts Options) (*Result, error) {
	return s.Dataset(data).Compute(ctx, opts)
}

// ServiceStats is a point-in-time view of the service's load.
type ServiceStats struct {
	// InFlight and Queued report the admission controller: jobs currently
	// admitted and jobs waiting in the FIFO queue.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// BusySlots and TotalSlots report the executor's task slots. Busy ones
	// are counted on the simulated cluster only; an external executor's
	// read 0.
	BusySlots  int `json:"busy_slots"`
	TotalSlots int `json:"total_slots"`
	// Admitted, Rejected and Canceled are cumulative admission outcomes
	// (the mr.queue.admitted / .rejected / .canceled counters).
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	Canceled int64 `json:"canceled"`
}

// Stats returns the service's current load. The cumulative admission
// outcomes are read from the executor's tracer and stay zero when an
// external Executor carries none.
func (s *Service) Stats() ServiceStats {
	st := ServiceStats{TotalSlots: s.exec.TotalSlots()}
	st.InFlight, st.Queued = s.exec.AdmissionStats()
	if s.cluster != nil {
		st.BusySlots = s.cluster.BusySlots()
	}
	// Direct counter lookups: Stats sits on skylined's polling path, and a
	// full Snapshot would copy and sort every metric just to read three.
	reg := s.trace.Metrics()
	st.Admitted = reg.Counter("mr.queue.admitted")
	st.Rejected = reg.Counter("mr.queue.rejected")
	st.Canceled = reg.Counter("mr.queue.canceled")
	return st
}

// MetricsJSON returns the full metrics registry — counters, gauges and
// histogram summaries across every query served so far — marshaled as
// JSON. cmd/skylined serves it at /v1/stats.
func (s *Service) MetricsJSON() ([]byte, error) {
	return json.Marshal(s.trace.Metrics().Snapshot())
}
