package mapreduce

// The leased driver: an engine built by NewLeasedEngine runs its attempts on
// a fleet of remote workers that pull task leases, run them in their own
// processes (RunRemoteMap, RunRemoteReduce) and report back. The fleet —
// internal/rpcexec's master — owns transport, worker liveness and the lease
// clock, and delivers four events to the Leases table: Grant, Report,
// ExpireBefore, WorkerDied. What a job is stays with the engine.
//
// A task is pending until granted, leased until reported on, done once a
// success report settles. A failure report returns it to pending and is
// charged against MaxAttempts; expiry, the holder's death, a peer's death
// and the job's end do too, as kills, which are not charged. A done map
// returns to pending when the worker holding its output dies. Before the map
// barrier its re-execution replaces what the lost attempt staged; after it —
// a repair inside the reduce phase — what it stages is never read, the
// phase's counters having been merged at the barrier (respill's rule,
// segment.go). Either way the task counts once.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"mrskyline/internal/cluster"
	"mrskyline/internal/frame"
)

// Leases is a leased engine's task table as its fleet sees it. Worker w is
// node w of the engine's cluster, a down node a dead worker; a worker holds
// one lease at a time. Safe for concurrent use; nothing waits on a worker.
type Leases struct {
	c       *cluster.Cluster
	nodes   []string
	jobDone func(job int64)

	mu     sync.Mutex
	jobs   []*leasedJob // running jobs in submission order
	lastID int64
	out    []*lease // out[w] is the lease worker w holds
}

// NewLeasedEngine creates an engine whose task attempts run on a fleet of
// remote workers, one per node of c, which pulls them through the returned
// Leases; jobs go through RunContext as on any engine. jobDone, when
// non-nil, is called with each job's id as it leaves the table, outside the
// table's lock, so the fleet can release what its workers hold for it.
func NewLeasedEngine(c *cluster.Cluster, jobDone func(job int64)) (*Engine, *Leases) {
	l := &Leases{c: c, nodes: c.Nodes(), jobDone: jobDone}
	l.out = make([]*lease, len(l.nodes))
	return &Engine{cluster: c, leases: l}, l
}

// Lease is one granted task attempt. The fleet ships it to the worker and
// echoes Job, Phase, Task and Attempt in the attempt's Report.
type Lease struct {
	Job     int64
	Phase   Phase
	Task    int
	Attempt int
	// Split is a map task's framed input records; Maps, for a reduce task,
	// every map task's committed Report in task order: where its input is.
	Split []byte
	Maps  []*Report
}

// Report is a worker's account of one leased attempt.
type Report struct {
	Job     int64
	Phase   Phase
	Task    int
	Attempt int
	Worker  int
	// Err is the attempt's failure, "" on success; Killed marks one that is
	// not the attempt's own (a peer holding its input was unreachable).
	Err      string
	Killed   bool
	Counters CounterDump
	// Checksums and Bytes describe a map attempt's per-reducer segments,
	// which stay with the worker. Output is a reduce attempt's framed
	// output, ShuffleBytes the key+value volume of its input, Refetches the
	// segments it pulled again after a checksum mismatch.
	Checksums    []uint64
	Bytes        []int64
	Output       []byte
	ShuffleBytes int64
	Refetches    int64
}

// lease is an attempt out with a worker.
type lease struct {
	Lease
	lj      *leasedJob
	granted time.Time
}

// leasedJob is one running job's entry in the table.
type leasedJob struct {
	id     int64
	j      *jobRun
	info   RemoteTask // the job-wide half of its RemoteTasks
	splits [][]byte   // framed input, one per map task
	// ph[p], tasks[p] and pending[p] — the tasks without a committed
	// attempt — are phase p's, empty until the driver reaches it. cur is
	// the phase being driven; an earlier one is past its barrier.
	ph      [2]*phase
	tasks   [2][]ltask
	pending [2]int
	cur     Phase
	// done is closed, and cleared, when cur completes or the job fails (err
	// says which). While it is nil nothing is granted and nothing settles.
	done chan struct{}
	err  error
}

// ltask is the table's per-task state.
type ltask struct {
	issued   int     // attempt numbers issued so far
	failures int     // failed attempts, charged against MaxAttempts
	leased   bool    // an attempt is out with a worker
	report   *Report // the committed attempt's; nil until the task is done
}

// open enters the job into the table, its input framed for shipping.
func (l *Leases) open(j *jobRun) error {
	lj := &leasedJob{j: j, splits: make([][]byte, len(j.rj.splits)), info: RemoteTask{
		Job: j.job.Name, Kind: j.job.Kind, Spec: j.job.Spec, Cache: j.job.Cache,
		NumMappers: j.rj.numMappers, NumReducers: j.rj.numReducers,
	}}
	for m, s := range j.rj.splits {
		err := s.Each(func(rec Record) error {
			lj.splits[m] = frame.AppendRecord(lj.splits[m], rec.Key, rec.Value)
			return nil
		})
		if err != nil {
			return fmt.Errorf("reading split %d: %w", m, err)
		}
	}
	j.leased = lj
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastID++
	lj.id = l.lastID
	l.jobs = append(l.jobs, lj)
	return nil
}

// close takes the job out of the table, killing its leases still out.
func (l *Leases) close(lj *leasedJob) {
	l.mu.Lock()
	l.reclaim("job over", func(_ int, h *lease) bool { return h.lj == lj })
	l.jobs = slices.DeleteFunc(l.jobs, func(x *leasedJob) bool { return x == lj })
	l.mu.Unlock()
	if l.jobDone != nil {
		l.jobDone(lj.id)
	}
}

// Task returns the job-wide half of the job's RemoteTasks, which a worker
// asks for once; ok is false for a job not in the table.
func (l *Leases) Task(job int64) (_ RemoteTask, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, lj := range l.jobs {
		if lj.id == job {
			return lj.info, true
		}
	}
	return RemoteTask{}, false
}

var errAllWorkersDead = errors.New("all workers dead")

func (l *Leases) anyAlive() bool {
	return slices.ContainsFunc(l.nodes, func(n string) bool { return !l.c.IsDown(n) })
}

// runLeased is the leased driver: it opens the phase for granting and waits
// for the fleet's reports to complete it or fail the job. When ctx ends it
// stops granting and returns at once — attempts still out are killed as the
// job leaves the table, not waited for.
func (j *jobRun) runLeased(ctx context.Context, ph *phase) error {
	l, lj, p := j.e.leases, j.leased, ph.phase
	done := make(chan struct{})
	l.mu.Lock()
	lj.ph[p], lj.tasks[p], lj.pending[p] = ph, make([]ltask, ph.numTasks), ph.numTasks
	lj.cur, lj.done = p, done
	if !l.anyAlive() {
		lj.finish(errAllWorkersDead)
	} else if ph.numTasks == 0 {
		lj.finish(nil)
	}
	l.mu.Unlock()
	select {
	case <-done:
	case <-ctx.Done():
		l.mu.Lock()
		lj.finish(ctx.Err())
		l.mu.Unlock()
	}
	return lj.err
}

// finish ends the driver's wait, if it is waiting. Table locked.
func (lj *leasedJob) finish(err error) {
	if lj.done != nil {
		lj.err = err
		close(lj.done)
		lj.done = nil
	}
}

// Grant leases the worker one runnable attempt, or reports that there is
// none right now: jobs in submission order, maps before reduces, reduces
// only while every map is done.
func (l *Leases) Grant(worker int) (Lease, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if worker < 0 || worker >= len(l.out) || l.out[worker] != nil || l.c.IsDown(l.nodes[worker]) {
		return Lease{}, false
	}
	for _, lj := range l.jobs {
		if lj.done == nil {
			continue
		}
		p := PhaseMap
		if lj.pending[PhaseMap] == 0 {
			p = lj.cur // the reduces, once the driver is there
		}
		for t := range lj.tasks[p] {
			st := &lj.tasks[p][t]
			if st.report != nil || st.leased {
				continue
			}
			st.issued++
			st.leased = true
			lj.j.res.ClusterStats.Count(l.nodes[worker], st.issued > 1)
			ls := Lease{Job: lj.id, Phase: p, Task: t, Attempt: st.issued}
			if p == PhaseMap {
				ls.Split = lj.splits[t]
			} else {
				for _, m := range lj.tasks[PhaseMap] {
					ls.Maps = append(ls.Maps, m.report)
				}
			}
			l.out[worker] = &lease{Lease: ls, lj: lj, granted: time.Now()}
			return ls, true
		}
		// Everything pending is in flight: this job has nothing else yet.
	}
	return Lease{}, false
}

// Report settles the lease r answers and says whether it was accepted: a
// report that does not match the lease its worker holds — the lease expired,
// the worker was declared dead, the job is over — is dropped.
func (l *Leases) Report(r *Report) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.Worker < 0 || r.Worker >= len(l.out) {
		return false
	}
	h := l.out[r.Worker]
	if h == nil || h.Job != r.Job || h.Phase != r.Phase || h.Task != r.Task || h.Attempt != r.Attempt || h.lj.done == nil {
		return false
	}
	if r.Killed {
		l.kill(r.Worker, r.Err)
		return true
	}
	lj, rec := h.lj, l.record(r.Worker)
	j, ph, st := lj.j, lj.ph[r.Phase], &lj.tasks[r.Phase][r.Task]
	l.out[r.Worker], st.leased = nil, false
	counters := NewCounters()
	var commit func()
	err := j.guard(ph, rec, func() (err error) {
		if r.Err != "" {
			return errors.New(r.Err)
		}
		commit, err = lj.accept(r, st, counters)
		return err
	})
	if j.settle(ph, rec, counters, commit, err) != nil {
		if spent := j.failed(ph, rec, &st.failures, err); spent != nil {
			lj.finish(spent)
		}
		return true
	}
	j.attemptSpan(ph, rec, "ok")
	if lj.pending[r.Phase]--; lj.pending[r.Phase] == 0 && r.Phase == lj.cur {
		lj.finish(nil)
	}
	return true
}

// accept turns a success report into the attempt's counters and commit: the
// report says where a map's output lives and carries a reduce's.
func (lj *leasedJob) accept(r *Report, st *ltask, counters *Counters) (commit func(), err error) {
	counters.mergeDump(r.Counters)
	if r.Phase == PhaseMap {
		return func() { st.report = r }, nil
	}
	out, err := decodeRecords(r.Output)
	if err != nil {
		return nil, fmt.Errorf("decoding output: %w", err)
	}
	counters.Add(CounterShuffleBytes, r.ShuffleBytes)
	if r.Refetches > 0 {
		counters.Add(CounterShuffleCorruptions, r.Refetches)
	}
	return func() { st.report, lj.j.reduceOut[r.Task] = r, out }, nil
}

// record describes the lease worker w holds, ending now.
func (l *Leases) record(w int) TaskRecord {
	h := l.out[w]
	return TaskRecord{
		Phase: h.Phase, TaskID: h.Task, Attempt: h.Attempt, Node: l.nodes[w],
		Start: h.granted.Sub(h.lj.j.start), Duration: time.Since(h.granted),
	}
}

// kill takes worker w's lease back: on record as killed, its task pending.
func (l *Leases) kill(w int, reason string) {
	h, rec := l.out[w], l.record(w)
	l.out[w], h.lj.tasks[h.Phase][h.Task].leased = nil, false
	h.lj.j.kill(h.lj.ph[h.Phase], rec, fmt.Sprintf("%s task %d attempt %d killed: %s", h.Phase, h.Task, h.Attempt, reason))
}

// reclaim kills every lease that match selects and counts them.
func (l *Leases) reclaim(reason string, match func(w int, h *lease) bool) (n int) {
	for w, h := range l.out {
		if h != nil && match(w, h) {
			l.kill(w, reason)
			n++
		}
	}
	return n
}

// ExpireBefore kills the leases granted before t — out too long by the
// fleet's clock — and returns how many there were.
func (l *Leases) ExpireBefore(t time.Time) (expired int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reclaim("lease expired", func(_ int, h *lease) bool { return h.granted.Before(t) })
}

// WorkerDied takes the worker out of the fleet: its lease is killed, map
// output it held is lost and those maps re-execute, and with no worker left
// every running job fails. Idempotent.
func (l *Leases) WorkerDied(worker int, reason string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if worker < 0 || worker >= len(l.nodes) || l.c.IsDown(l.nodes[worker]) {
		return
	}
	l.c.SetDown(l.nodes[worker], true) // cannot fail: the node was just looked up
	l.reclaim("worker died: "+reason, func(w int, _ *lease) bool { return w == worker })
	alive := l.anyAlive()
	for _, lj := range l.jobs {
		lj.j.res.Counters.Add(CounterNodeFailures, 1)
		for t := range lj.tasks[PhaseMap] {
			if st := &lj.tasks[PhaseMap][t]; st.report != nil && st.report.Worker == worker {
				st.report = nil
				lj.pending[PhaseMap]++
			}
		}
		if !alive {
			lj.finish(errAllWorkersDead)
		}
	}
}
