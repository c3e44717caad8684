package rpcexec

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"mrskyline/internal/cluster"
	"mrskyline/internal/mapreduce"
)

// The master is the fleet side of a leased engine (mapreduce.Leases): it
// owns the transport, the worker registry and the clocks, and decides
// nothing about jobs. A worker's Lease call becomes a Grant, its MapDone or
// ReduceDone a Report; the janitor turns stale heartbeats into WorkerDied
// and old leases into ExpireBefore. Which task goes out next, whether a
// report still matches its lease, what a failure costs and when the job is
// over are the engine's to say.

// workerState is the master's view of one worker process.
type workerState struct {
	addr     string
	alive    bool
	lastSeen time.Time
	dropQ    []int64 // finished jobs whose segments the worker may evict
}

// master owns the worker registry and serves the Master RPC service. One
// mutex guards all state: every RPC is a short critical section, and task
// bodies run worker-side. It is held across calls into the lease table,
// never the other way round — the table calls jobDone unlocked.
type master struct {
	mu  sync.Mutex
	cfg Config // the timings, and Trace for the rpc.* metrics

	eng    *mapreduce.Engine
	leases *mapreduce.Leases

	ln       net.Listener
	addr     string
	workers  []*workerState
	shutdown bool

	janitorStop chan struct{}
	wg          sync.WaitGroup
}

func newMaster(cfg Config) (*master, error) {
	// Every worker process is a one-slot node: its own failure domain,
	// running one task at a time.
	nodes := make([]cluster.Node, cfg.Workers)
	for i := range nodes {
		nodes[i] = cluster.Node{Name: workerNode(i), Slots: 1}
	}
	fleet, err := cluster.New(nodes)
	if err != nil {
		return nil, fmt.Errorf("rpcexec: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("rpcexec: master listen: %w", err)
	}
	m := &master{cfg: cfg, ln: ln, addr: ln.Addr().String(), janitorStop: make(chan struct{})}
	m.eng, m.leases = mapreduce.NewLeasedEngine(fleet, m.jobDone)
	m.eng.SetTrace(cfg.Trace)
	srv := rpc.NewServer()
	if err := srv.RegisterName("Master", m); err != nil {
		ln.Close()
		return nil, fmt.Errorf("rpcexec: register master service: %w", err)
	}
	m.wg.Add(2)
	go m.acceptLoop(srv)
	go m.janitor()
	return m, nil
}

func (m *master) acceptLoop(srv *rpc.Server) {
	defer m.wg.Done()
	var connWG sync.WaitGroup
	defer connWG.Wait()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		connWG.Add(1)
		go func() {
			defer connWG.Done()
			srv.ServeConn(conn)
		}()
	}
}

// janitor is the lease/heartbeat watchdog: it declares workers dead when
// their heartbeat goes stale and reclaims leases whose deadline passed.
func (m *master) janitor() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.HeartbeatInterval / 2)
	defer tick.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case now := <-tick.C:
			m.mu.Lock()
			for id, w := range m.workers {
				if w.alive && now.Sub(w.lastSeen) > m.cfg.HeartbeatTimeout {
					m.markWorkerDead(id, "heartbeat timeout")
				}
			}
			if n := m.leases.ExpireBefore(now.Add(-m.cfg.LeaseTimeout)); n > 0 {
				m.cfg.Trace.Metrics().Count("rpc.lease.expired", int64(n))
			}
			m.mu.Unlock()
		}
	}
}

// markWorkerDead takes a worker out of the registry and tells the engine.
// Idempotent. Called with m.mu held.
func (m *master) markWorkerDead(id int, reason string) {
	w := m.workers[id]
	if !w.alive {
		return
	}
	w.alive = false
	m.cfg.Trace.Metrics().Count("rpc.worker.deaths", 1)
	m.leases.WorkerDied(id, reason)
}

// jobDone queues a finished job's id for every live worker, which is told
// on its next heartbeat to evict the job's shuffle segments.
func (m *master) jobDone(job int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range m.workers {
		if w.alive {
			w.dropQ = append(w.dropQ, job)
		}
	}
}

// touch refreshes a worker's liveness clock. Called with m.mu held.
func (m *master) touch(id int) *workerState {
	if id < 0 || id >= len(m.workers) {
		return nil
	}
	w := m.workers[id]
	w.lastSeen = time.Now()
	return w
}

// registeredWorkers counts registrations (alive or not).
func (m *master) registeredWorkers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.workers)
}

// beginShutdown flips the master into drain mode: leases and heartbeats
// start telling workers to exit.
func (m *master) beginShutdown() {
	m.mu.Lock()
	m.shutdown = true
	m.mu.Unlock()
}

// stop tears the master down after workers are gone.
func (m *master) stop() {
	close(m.janitorStop)
	m.ln.Close()
	m.wg.Wait()
}

// ---------------------------------------------------------------------------
// Master RPC service

// Register implements the Master.Register RPC.
func (m *master) Register(args *RegisterArgs, reply *RegisterReply) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := len(m.workers)
	m.workers = append(m.workers, &workerState{
		addr: args.Addr, alive: true, lastSeen: time.Now(),
	})
	reply.WorkerID = id
	reply.HeartbeatEveryNs = int64(m.cfg.HeartbeatInterval)
	reply.LeasePollEveryNs = int64(m.cfg.LeasePoll)
	return nil
}

// Heartbeat implements the Master.Heartbeat RPC.
func (m *master) Heartbeat(args *HeartbeatArgs, reply *HeartbeatReply) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.touch(args.WorkerID)
	if w == nil {
		return fmt.Errorf("rpcexec: unknown worker %d", args.WorkerID)
	}
	if args.PrevRTTNs > 0 {
		m.cfg.Trace.Metrics().Observe("rpc.heartbeat.rtt.ns", args.PrevRTTNs)
	}
	reply.Exit = m.shutdown || !w.alive
	reply.DropJobs, w.dropQ = w.dropQ, nil
	return nil
}

// Lease implements the Master.Lease RPC: put the engine's grant, if it has
// one for this worker, on the wire.
func (m *master) Lease(args *LeaseArgs, reply *LeaseReply) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.touch(args.WorkerID)
	if w == nil {
		return fmt.Errorf("rpcexec: unknown worker %d", args.WorkerID)
	}
	if m.shutdown || !w.alive {
		reply.Kind = LeaseExit
		return nil
	}
	l, ok := m.leases.Grant(args.WorkerID)
	if !ok {
		reply.Kind = LeaseNone
		return nil
	}
	m.cfg.Trace.Metrics().Count("rpc.lease.granted", 1)
	reply.JobID, reply.TaskID, reply.Attempt = l.Job, l.Task, l.Attempt
	if l.Phase == mapreduce.PhaseMap {
		reply.Kind, reply.Split = LeaseMap, l.Split
		return nil
	}
	// A reduce task's fetch list: non-empty segments only, in map-task order.
	reply.Kind = LeaseReduce
	for mi, out := range l.Maps {
		if l.Task >= len(out.Bytes) || out.Bytes[l.Task] == 0 {
			continue
		}
		reply.Sources = append(reply.Sources, MapSource{
			MapTask:  mi,
			WorkerID: out.Worker,
			Addr:     m.workers[out.Worker].addr,
			Checksum: out.Checksums[l.Task],
			Bytes:    out.Bytes[l.Task],
		})
	}
	return nil
}

// MapDone implements the Master.MapDone RPC.
func (m *master) MapDone(args *MapDoneArgs, _ *Empty) error {
	m.report(&mapreduce.Report{
		Job: args.JobID, Phase: mapreduce.PhaseMap, Task: args.TaskID, Attempt: args.Attempt,
		Worker: args.WorkerID, Err: args.Err, Counters: args.Counters,
		Checksums: args.Checksums, Bytes: args.Bytes,
	}, -1, 0)
	return nil
}

// ReduceDone implements the Master.ReduceDone RPC.
func (m *master) ReduceDone(args *ReduceDoneArgs, _ *Empty) error {
	m.report(&mapreduce.Report{
		Job: args.JobID, Phase: mapreduce.PhaseReduce, Task: args.TaskID, Attempt: args.Attempt,
		Worker: args.WorkerID, Err: args.Err, Counters: args.Counters,
		Output: args.Output, ShuffleBytes: args.PayloadBytes, Refetches: args.Refetches,
	}, args.FetchFailedWorker, args.WireBytes)
	return nil
}

// report hands a worker's report to the engine. An attempt that failed
// because it could not fetch from peer died of the peer's death, not its own
// bug: it is reported as killed, and the evidence is acted on now — the
// heartbeat janitor would reach the same verdict a timeout later.
func (m *master) report(r *mapreduce.Report, peer int, wireBytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.touch(r.Worker) == nil {
		return
	}
	r.Killed = r.Err != "" && peer >= 0 && peer < len(m.workers)
	switch accepted := m.leases.Report(r); {
	case !accepted:
	case r.Killed:
		m.markWorkerDead(peer, "unreachable during shuffle fetch")
	case r.Err == "":
		m.cfg.Trace.Metrics().Count("rpc.shuffle.wire.bytes", wireBytes)
	}
}

// JobInfo implements the Master.JobInfo RPC.
func (m *master) JobInfo(args *JobInfoArgs, reply *JobInfoReply) error {
	t, ok := m.leases.Task(args.JobID)
	if !ok {
		return fmt.Errorf("rpcexec: unknown job %d", args.JobID)
	}
	*reply = JobInfoReply{
		Name: t.Job, Kind: t.Kind, Spec: t.Spec, Cache: t.Cache,
		NumMappers: t.NumMappers, NumReducers: t.NumReducers,
	}
	return nil
}
