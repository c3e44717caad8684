package rpcexec

import (
	"fmt"
	"net"
	"net/rpc"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mrskyline/internal/mapreduce"
)

// Environment variables wiring a spawned worker to its master. The worker
// is the same binary as the driver, re-exec'd: cmd mains and TestMain call
// WorkerMain first, which takes over the process when workerEnvAddr is
// set. Re-exec'ing the same binary is what makes the kind registry work —
// every RegisterKind init that ran in the driver has run in the worker.
const (
	workerEnvAddr        = "MRSKYLINE_WORKER"
	workerEnvIndex       = "MRSKYLINE_WORKER_INDEX"
	workerEnvChaos       = "MRSKYLINE_WORKER_CHAOS"
	workerEnvSpillBudget = "MRSKYLINE_WORKER_SPILL_BUDGET"
	workerEnvSpillDir    = "MRSKYLINE_WORKER_SPILL_DIR"
)

// WorkerMain turns the process into an rpcexec worker when the
// MRSKYLINE_WORKER environment variable names a master address, and
// returns without doing anything otherwise. Binaries that want to host
// workers (cmd/skylined, bench/, test binaries via TestMain) call it
// first thing in main.
func WorkerMain() {
	addr := os.Getenv(workerEnvAddr)
	if addr == "" {
		return
	}
	if err := runWorker(addr); err != nil {
		fmt.Fprintf(os.Stderr, "rpcexec worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// storeKey locates one map task's output in a worker's segment store.
type storeKey struct {
	job  int64
	task int
}

// worker is one worker process's state.
type worker struct {
	id    int
	index int
	node  string
	cl    *rpc.Client
	chaos *chaosSpec

	exit atomic.Bool // set when the master asks us to shut down

	// spill, when non-nil, switches the worker to the external-memory
	// shuffle: map-output segments live as files under spill.dir instead
	// of in store, and reduce attempts run the budget-bounded run merge.
	spill *workerSpill

	storeMu sync.Mutex
	store   map[storeKey][][]byte // map output segments, index = reducer
	files   map[storeKey][]string // spill mode: segment file per reducer ("" = empty)

	peerMu sync.Mutex
	peers  map[string]*rpc.Client

	infoMu sync.Mutex
	infos  map[int64]*JobInfoReply
}

// runWorker is the worker process body: serve peer fetches, register with
// the master, heartbeat, and poll for task leases until told to exit or
// the master disappears.
func runWorker(masterAddr string) error {
	chaos, err := parseChaos(os.Getenv(workerEnvChaos))
	if err != nil {
		return err
	}
	index := 0
	fmt.Sscanf(os.Getenv(workerEnvIndex), "%d", &index)
	w := &worker{
		index: index,
		chaos: chaos,
		store: make(map[storeKey][][]byte),
		files: make(map[storeKey][]string),
		peers: make(map[string]*rpc.Client),
		infos: make(map[int64]*JobInfoReply),
	}
	if sp, err := workerSpillFromEnv(index); err != nil {
		return err
	} else if sp != nil {
		w.spill = sp
		defer os.RemoveAll(sp.dir)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("worker listen: %w", err)
	}
	defer ln.Close()
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", &workerFetchService{w: w}); err != nil {
		return fmt.Errorf("register fetch service: %w", err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()

	w.cl, err = rpc.Dial("tcp", masterAddr)
	if err != nil {
		return fmt.Errorf("dial master: %w", err)
	}
	// Close connections on the way out: worker processes would release them
	// at exit anyway, but workers hosted in-process (tests run runWorker in a
	// goroutine for coverage) must drop them so the master's per-connection
	// serve goroutines can finish.
	defer w.cl.Close()
	defer func() {
		w.peerMu.Lock()
		for _, cl := range w.peers {
			cl.Close()
		}
		w.peerMu.Unlock()
	}()
	var reg RegisterReply
	err = w.cl.Call("Master.Register", &RegisterArgs{
		Addr: ln.Addr().String(), PID: os.Getpid(), Index: index,
	}, &reg)
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	w.id = reg.WorkerID
	w.node = workerNode(w.id)

	hbEvery := time.Duration(reg.HeartbeatEveryNs)
	poll := time.Duration(reg.LeasePollEveryNs)
	go w.heartbeatLoop(hbEvery)

	for !w.exit.Load() {
		var lease LeaseReply
		if err := w.cl.Call("Master.Lease", &LeaseArgs{WorkerID: w.id}, &lease); err != nil {
			return fmt.Errorf("lease: %w", err) // master gone
		}
		switch lease.Kind {
		case LeaseNone:
			time.Sleep(poll)
		case LeaseExit:
			w.exit.Store(true)
		case LeaseMap:
			if err := w.runMap(&lease); err != nil {
				return err
			}
		case LeaseReduce:
			if err := w.runReduce(&lease); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown lease kind %q", lease.Kind)
		}
	}
	return nil
}

// heartbeatLoop beats until the master asks for exit or becomes
// unreachable. Each beat reports the measured round-trip time of the
// previous one, giving the master a worker-observed RTT series.
func (w *worker) heartbeatLoop(every time.Duration) {
	var prevRTT int64
	for range time.Tick(every) {
		if w.exit.Load() {
			return
		}
		var reply HeartbeatReply
		t0 := time.Now()
		err := w.cl.Call("Master.Heartbeat", &HeartbeatArgs{WorkerID: w.id, PrevRTTNs: prevRTT}, &reply)
		prevRTT = int64(time.Since(t0))
		if err != nil || reply.Exit {
			w.exit.Store(true)
			return
		}
		if len(reply.DropJobs) > 0 {
			w.dropJobs(reply.DropJobs)
		}
	}
}

// dropJobs evicts finished jobs' segments (memory and disk) and cached
// job info.
func (w *worker) dropJobs(ids []int64) {
	w.storeMu.Lock()
	dropped := func(job int64) bool {
		for _, id := range ids {
			if job == id {
				return true
			}
		}
		return false
	}
	for k := range w.store {
		if dropped(k.job) {
			delete(w.store, k)
		}
	}
	for k, paths := range w.files {
		if dropped(k.job) {
			for _, p := range paths {
				if p != "" {
					os.Remove(p)
				}
			}
			delete(w.files, k)
		}
	}
	w.storeMu.Unlock()
	w.infoMu.Lock()
	for _, id := range ids {
		delete(w.infos, id)
	}
	w.infoMu.Unlock()
}

// workerSpill is a worker's external-memory shuffle configuration: its
// private segment/run directory plus the reduce-merge budget.
type workerSpill struct {
	dir    string
	budget int64
}

// workerSpillFromEnv builds the worker's spill state from the environment
// the master set at spawn; nil when spilling is off. The worker owns a
// private subdirectory so concurrent workers never collide.
func workerSpillFromEnv(index int) (*workerSpill, error) {
	budgetStr := os.Getenv(workerEnvSpillBudget)
	if budgetStr == "" {
		return nil, nil
	}
	budget, err := strconv.ParseInt(budgetStr, 10, 64)
	if err != nil || budget <= 0 {
		return nil, fmt.Errorf("worker spill budget %q invalid", budgetStr)
	}
	base := os.Getenv(workerEnvSpillDir)
	if base == "" {
		return nil, fmt.Errorf("worker spill budget set without a directory")
	}
	dir, err := os.MkdirTemp(base, fmt.Sprintf("worker%d-", index))
	if err != nil {
		return nil, fmt.Errorf("worker spill dir: %w", err)
	}
	return &workerSpill{dir: dir, budget: budget}, nil
}

// putSegs stores one map task's output segments: in memory normally, as
// one file per non-empty segment in spill mode, so a beyond-RAM job's map
// outputs never accumulate in the worker heap.
func (w *worker) putSegs(k storeKey, segs [][]byte) error {
	if w.spill == nil {
		w.storeMu.Lock()
		w.store[k] = segs
		w.storeMu.Unlock()
		return nil
	}
	paths := make([]string, len(segs))
	for r, seg := range segs {
		if len(seg) == 0 {
			continue
		}
		p := filepath.Join(w.spill.dir, fmt.Sprintf("j%d-m%d-r%d.seg", k.job, k.task, r))
		if err := os.WriteFile(p, seg, 0o600); err != nil {
			return fmt.Errorf("storing segment: %w", err)
		}
		paths[r] = p
	}
	w.storeMu.Lock()
	w.files[k] = paths
	w.storeMu.Unlock()
	return nil
}

// getSeg loads one stored segment (nil for a stored-but-empty one); ok is
// false when the task's output is not in the store at all. Disk
// corruption of a spilled segment surfaces at the consumer as a checksum
// mismatch, feeding the existing refetch / worker-death machinery.
func (w *worker) getSeg(k storeKey, r int) (seg []byte, ok bool, err error) {
	w.storeMu.Lock()
	if w.spill == nil {
		segs, found := w.store[k]
		w.storeMu.Unlock()
		if !found || r < 0 || r >= len(segs) {
			return nil, false, nil
		}
		return segs[r], true, nil
	}
	paths, found := w.files[k]
	w.storeMu.Unlock()
	if !found || r < 0 || r >= len(paths) {
		return nil, false, nil
	}
	if paths[r] == "" {
		return nil, true, nil
	}
	seg, err = os.ReadFile(paths[r])
	if err != nil {
		return nil, true, fmt.Errorf("reading stored segment: %w", err)
	}
	return seg, true, nil
}

// jobInfo returns the job's static description, fetching it from the
// master once per job.
func (w *worker) jobInfo(jobID int64) (*JobInfoReply, error) {
	w.infoMu.Lock()
	defer w.infoMu.Unlock()
	if info, ok := w.infos[jobID]; ok {
		return info, nil
	}
	info := &JobInfoReply{}
	if err := w.cl.Call("Master.JobInfo", &JobInfoArgs{JobID: jobID}, info); err != nil {
		return nil, err
	}
	w.infos[jobID] = info
	return info, nil
}

func (w *worker) remoteTask(info *JobInfoReply, lease *LeaseReply) *mapreduce.RemoteTask {
	t := &mapreduce.RemoteTask{
		Job:         info.Name,
		Kind:        info.Kind,
		Spec:        info.Spec,
		Cache:       info.Cache,
		TaskID:      lease.TaskID,
		Attempt:     lease.Attempt,
		NumMappers:  info.NumMappers,
		NumReducers: info.NumReducers,
		Node:        w.node,
	}
	if w.spill != nil {
		t.SpillBudget = w.spill.budget
		t.SpillDir = w.spill.dir
	}
	return t
}

// runMap executes one map lease: run the kind's mapper over the shipped
// split, keep the per-reducer segments in the local store, and report
// their checksums and sizes. A returned error means the master is
// unreachable; task errors travel inside the report.
func (w *worker) runMap(lease *LeaseReply) error {
	args := &MapDoneArgs{WorkerID: w.id, JobID: lease.JobID, TaskID: lease.TaskID, Attempt: lease.Attempt}
	info, err := w.jobInfo(lease.JobID)
	if err == nil {
		w.chaos.maybeKill(ChaosMap)
		var segs [][]byte
		var counters *mapreduce.Counters
		segs, counters, err = mapreduce.RunRemoteMap(w.remoteTask(info, lease), lease.Split)
		if err == nil {
			err = w.putSegs(storeKey{job: lease.JobID, task: lease.TaskID}, segs)
		}
		if err == nil {
			args.Checksums = make([]uint64, len(segs))
			args.Bytes = make([]int64, len(segs))
			for r, seg := range segs {
				args.Checksums[r] = mapreduce.SegmentChecksum(seg)
				args.Bytes[r] = int64(len(seg))
			}
			args.Counters = counters.Dump()
		}
	}
	if err != nil {
		args.Err = err.Error()
	}
	return w.cl.Call("Master.MapDone", args, &Empty{})
}

// runReduce executes one reduce lease: fetch every source segment (local
// store for our own, Worker.Fetch RPC for peers, checksum-verified with
// one refetch), feed them to the kind's reducer in map-task order, and
// report the framed output.
func (w *worker) runReduce(lease *LeaseReply) error {
	args := &ReduceDoneArgs{
		WorkerID: w.id, JobID: lease.JobID, TaskID: lease.TaskID, Attempt: lease.Attempt,
		FetchFailedWorker: -1,
	}
	info, err := w.jobInfo(lease.JobID)
	if err == nil {
		segs := make([][]byte, info.NumMappers)
		for _, src := range lease.Sources {
			seg, wire, refetches, ferr := w.fetchSegment(lease, src)
			args.WireBytes += wire
			args.Refetches += refetches
			if ferr != nil {
				err = ferr
				if src.WorkerID != w.id {
					args.FetchFailedWorker = src.WorkerID
				}
				break
			}
			segs[src.MapTask] = seg
			payload, perr := mapreduce.SegmentPayloadBytes(seg)
			if perr != nil {
				err = perr
				break
			}
			args.PayloadBytes += payload
		}
		if err == nil {
			w.chaos.maybeKill(ChaosReduce)
			var out []byte
			var counters *mapreduce.Counters
			out, counters, err = mapreduce.RunRemoteReduce(w.remoteTask(info, lease), segs)
			if err == nil {
				args.Output = out
				args.Counters = counters.Dump()
			}
		}
	}
	if err != nil {
		args.Err = err.Error()
	}
	return w.cl.Call("Master.ReduceDone", args, &Empty{})
}

// fetchSegment obtains one map output segment and verifies it against the
// master-recorded checksum: our own segments come from the local store,
// peers' over their Fetch RPC with bounded retries (a dead peer shows up
// as a connection error) and one checksum-mismatch refetch — the same
// detect-and-repull contract the in-process engine applies to corrupted
// shuffle segments.
func (w *worker) fetchSegment(lease *LeaseReply, src MapSource) (seg []byte, wireBytes, refetches int64, err error) {
	if src.WorkerID == w.id {
		seg, ok, err := w.getSeg(storeKey{job: lease.JobID, task: src.MapTask}, lease.TaskID)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("reduce task %d: %w", lease.TaskID, err)
		}
		if !ok {
			return nil, 0, 0, fmt.Errorf("reduce task %d: local segment for map %d missing", lease.TaskID, src.MapTask)
		}
		if mapreduce.SegmentChecksum(seg) != src.Checksum {
			return nil, 0, 0, fmt.Errorf("reduce task %d: local segment for map %d corrupt", lease.TaskID, src.MapTask)
		}
		return seg, 0, 0, nil
	}
	const fetchAttempts = 3
	var lastErr error
	for attempt := 0; attempt < fetchAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(25 * time.Millisecond)
		}
		w.chaos.maybeKill(ChaosFetch)
		var reply FetchReply
		callErr := w.callPeer(src.Addr, &FetchArgs{JobID: lease.JobID, MapTask: src.MapTask, Reduce: lease.TaskID}, &reply)
		if callErr != nil {
			lastErr = fmt.Errorf("fetch map %d from %s: %w", src.MapTask, workerNode(src.WorkerID), callErr)
			continue
		}
		wireBytes += int64(len(reply.Seg))
		if mapreduce.SegmentChecksum(reply.Seg) != src.Checksum {
			refetches++
			lastErr = fmt.Errorf("fetch map %d from %s: checksum mismatch", src.MapTask, workerNode(src.WorkerID))
			continue
		}
		return reply.Seg, wireBytes, refetches, nil
	}
	return nil, wireBytes, refetches, lastErr
}

// callPeer calls a peer worker's RPC service, caching connections and
// redialing once if a cached connection has gone bad.
func (w *worker) callPeer(addr string, args *FetchArgs, reply *FetchReply) error {
	for redial := 0; redial < 2; redial++ {
		w.peerMu.Lock()
		cl, ok := w.peers[addr]
		if !ok {
			var err error
			cl, err = rpc.Dial("tcp", addr)
			if err != nil {
				w.peerMu.Unlock()
				return err
			}
			w.peers[addr] = cl
		}
		w.peerMu.Unlock()
		err := cl.Call("Worker.Fetch", args, reply)
		if err == nil {
			return nil
		}
		w.peerMu.Lock()
		if w.peers[addr] == cl {
			delete(w.peers, addr)
			cl.Close()
		}
		w.peerMu.Unlock()
		if redial == 1 {
			return err
		}
	}
	return nil
}

// workerFetchService serves the peer shuffle: Worker.Fetch returns one
// stored map output segment.
type workerFetchService struct {
	w *worker
}

// Fetch implements the Worker.Fetch RPC. Under the "corrupt" chaos event
// one reply is served with a byte flipped — the stored segment stays
// pristine, so the fetcher's checksum verification catches the mismatch
// and its refetch succeeds.
func (s *workerFetchService) Fetch(args *FetchArgs, reply *FetchReply) error {
	s.w.chaos.maybeKill(ChaosServe)
	seg, ok, err := s.w.getSeg(storeKey{job: args.JobID, task: args.MapTask}, args.Reduce)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("rpcexec: worker %d has no segment for job %d map %d reduce %d",
			s.w.id, args.JobID, args.MapTask, args.Reduce)
	}
	if len(seg) > 0 && s.w.chaos.takeCorrupt() {
		bad := append([]byte(nil), seg...)
		bad[0] ^= 0xFF
		seg = bad
	}
	reply.Seg = seg
	return nil
}
