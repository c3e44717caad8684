package mapreduce

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"mrskyline/internal/cluster"
	"mrskyline/internal/frame"
	"mrskyline/internal/obs"
	"mrskyline/internal/spill"
)

// Phase identifies the half of a job a task belongs to; the fault injector
// receives it.
type Phase int

const (
	// PhaseMap marks map tasks.
	PhaseMap Phase = iota
	// PhaseReduce marks reduce tasks.
	PhaseReduce
)

// String implements fmt.Stringer for Phase.
func (p Phase) String() string {
	if p == PhaseMap {
		return "map"
	}
	return "reduce"
}

// Job describes one MapReduce execution.
type Job struct {
	// Name labels the job in errors and logs.
	Name string
	// Input supplies the splits; required.
	Input Input
	// NumMappers is the desired mapper count (an input with fewer records
	// yields fewer splits). Defaults to the cluster's total slot count.
	NumMappers int
	// NumReducers is the reduce task count; defaults to 1 (the shape of
	// MR-BNL, MR-Angle and MR-GPSRS).
	NumReducers int
	// NewMapper constructs a fresh Mapper per map-task attempt; required.
	NewMapper func() Mapper
	// NewReducer constructs a fresh Reducer per reduce-task attempt;
	// required.
	NewReducer func() Reducer
	// Partition routes map-output keys to reducers; defaults to
	// HashPartition.
	Partition PartitionFunc
	// Kind and Spec, when set, make the job executable out of process: Kind
	// names a builder registered with RegisterKind and Spec is the builder's
	// serialized parameters, from which worker processes reconstruct the
	// mapper/reducer/partition functions. The in-process engine
	// ignores both and always runs the closures above; a leased engine
	// rejects jobs whose Kind is empty or unregistered.
	Kind string
	Spec []byte
	// Cache is the distributed cache content shipped to every task.
	Cache Cache
	// MaxAttempts bounds per-task attempts (default 3, mirroring Hadoop's
	// mapred.map.max.attempts spirit).
	MaxAttempts int
	// Trace, when non-nil, overrides the engine's tracer for this job's
	// spans and metrics (job/phase/task/shuffle instrumentation), so
	// concurrent jobs can record isolated timelines. Slot-occupancy spans
	// are emitted by the cluster and stay on the cluster's tracer; queue
	// spans and mr.queue.* metrics describe engine-level state and stay on
	// the engine tracer.
	Trace *obs.Tracer
}

// Result is a finished job's output.
type Result struct {
	// Output contains every record emitted by the reducers. Records are
	// ordered by reduce task, then emission order, so results are
	// deterministic for deterministic jobs.
	Output []Record
	// Counters are the job's aggregated counters (successful attempts
	// only).
	Counters *Counters
	// ClusterStats records scheduling telemetry for both phases.
	ClusterStats cluster.Stats
	// MapTime and ReduceTime are the wall-clock durations of the two
	// phases (shuffle accounted to the reduce phase, as Hadoop reports).
	MapTime    time.Duration
	ReduceTime time.Duration
	// SimulatedTime is the job's modelled duration on the simulated
	// cluster; zero unless the engine carries a SimConfig. See SimConfig.
	SimulatedTime time.Duration
	// History records every task attempt of the job.
	History *History
}

// Engine executes jobs on a simulated cluster — or, when built by
// NewLeasedEngine, on a fleet of remote workers standing in for one.
//
// Run and RunContext are safe for concurrent use: jobs submitted from
// multiple goroutines share the cluster's slots through its scheduler, so
// concurrent jobs genuinely contend for capacity, while trace, history and
// counter state stay per job. The exceptions are configuration (SetTrace,
// SetAdmission, and the exported fields), which must be set before jobs
// are submitted, and virtual-clock execution: jobs on an engine carrying a
// FaultPlan serialize on an internal mutex, because the tracer's virtual
// base is a job-at-a-time resource.
type Engine struct {
	cluster *cluster.Cluster
	// FaultInjector, when non-nil, is invoked at the start of every task
	// attempt; a non-nil return fails the attempt, and a panic inside it is
	// recovered into a failed attempt. Tests use it to exercise retry
	// behaviour. A leased engine consults it when the attempt's report
	// arrives.
	FaultInjector func(phase Phase, taskID, attempt int) error
	// Faults, when non-nil, hands the job to the virtual-clock driver: the
	// same phases and attempt lifecycle, scheduled as a discrete-event
	// simulation driven by the plan's seed, with injected crashes,
	// stragglers, shuffle corruption, node death and (optionally)
	// speculative execution. Task placement, History and counters then
	// reproduce exactly for a given seed; Spill, Sim, FaultInjector and ctx
	// cancellation apply as on the wall clock. See FaultPlan.
	Faults *FaultPlan
	// trace, when non-nil, records the job timeline: job/phase/shuffle
	// spans on the driver track, task-attempt spans on per-slot tracks,
	// and duration/byte histograms. Set with SetTrace.
	trace *obs.Tracer
	// Spill, when non-nil with a positive budget, makes map attempts flush
	// their output segments to sorted run files under a per-job
	// subdirectory of Spill.Dir, and reduce attempts stream a
	// budget-bounded multi-round merge of their runs instead of a
	// materialized arena. Nil (or a zero budget) keeps every shuffle byte
	// resident. Both in-process drivers honour it: under Faults a node's
	// death also deletes the run files of the map output it held.
	Spill *spill.Config
	// Sim, when non-nil, turns on simulated-time accounting: concurrent
	// task bodies are bounded by SimConfig.MeasureParallelism for
	// contention-free measurement and Result gains a SimulatedTime
	// computed from the cluster schedule. See SimConfig. Under a FaultPlan
	// the SimulatedTime comes from the virtual fault schedule instead,
	// which also charges wasted (crashed, killed, duplicate) work.
	Sim *SimConfig
	// admission, when non-nil, bounds concurrent job execution; see
	// SetAdmission.
	admission *admission
	// faultMu serializes fault-schedule jobs: the virtual clock and the
	// tracer's virtual base are job-at-a-time resources.
	faultMu sync.Mutex
	// leases, set by NewLeasedEngine, hands the job to the leased driver.
	leases *Leases
}

// NewEngine creates an engine on the given cluster.
func NewEngine(c *cluster.Cluster) *Engine {
	return &Engine{cluster: c}
}

// Cluster returns the engine's cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// SetTrace attaches a tracer to the engine (and its cluster, which emits
// slot-occupancy spans on the wall-clock path). nil disables tracing.
// Call before Run.
func (e *Engine) SetTrace(tr *obs.Tracer) {
	e.trace = tr
	e.cluster.SetTrace(tr)
}

// jobTracer resolves the tracer for one job: its own override, or the
// engine's.
func (e *Engine) jobTracer(job *Job) *obs.Tracer {
	if job.Trace != nil {
		return job.Trace
	}
	return e.trace
}

// WallTracer returns the tracer for wall-clock instrumentation: the
// engine's tracer on the wall-clock driver, nil under a FaultPlan — a
// virtual-clock run's trace must contain only deterministic virtual
// spans, never host timings.
func (e *Engine) WallTracer() *obs.Tracer {
	if e.Faults != nil {
		return nil
	}
	return e.trace
}

// stateArg renders an error as a span state annotation.
func stateArg(err error) obs.Arg {
	if err != nil {
		return obs.Arg{Key: "state", Value: "error"}
	}
	return obs.Arg{Key: "state", Value: "ok"}
}

// resolvedJob holds a job's validated and defaulted execution parameters.
type resolvedJob struct {
	numMappers  int
	numReducers int
	maxAttempts int
	partition   PartitionFunc
	splits      []Split
}

// resolve validates the job and computes its task layout: one split per map
// task, the input being asked for job.NumMappers of them or, by default,
// one per slot.
func (e *Engine) resolve(job *Job) (*resolvedJob, error) {
	switch {
	case job.Input == nil:
		return nil, fmt.Errorf("mapreduce: job %q has no input", job.Name)
	case job.NewMapper == nil || job.NewReducer == nil:
		return nil, fmt.Errorf("mapreduce: job %q is missing a mapper or reducer", job.Name)
	case e.leases != nil && job.Kind == "":
		return nil, fmt.Errorf("mapreduce: job %q has no Kind: a fleet's workers rebuild its functions from a registered kind", job.Name)
	case e.leases != nil && !kindRegistered(job.Kind):
		return nil, fmt.Errorf("mapreduce: job %q: kind %q is not registered in this binary", job.Name, job.Kind)
	}
	hint := job.NumMappers
	if hint < 1 {
		hint = max(e.cluster.TotalSlots(), 1)
	}
	splits, err := job.Input.Splits(hint)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: splitting input: %w", job.Name, err)
	}
	rj := &resolvedJob{
		numMappers:  len(splits),
		numReducers: max(job.NumReducers, 1),
		maxAttempts: job.MaxAttempts,
		partition:   job.Partition,
		splits:      splits,
	}
	if rj.partition == nil {
		rj.partition = HashPartition
	}
	if rj.maxAttempts < 1 {
		rj.maxAttempts = 3
	}
	return rj, nil
}

// Run executes the job and returns its result. The first task failure
// (after retries) aborts the job; on error the returned Result, when
// non-nil, carries the partial History and counters accumulated so far —
// chaos tests inspect it to verify that every attempt was recorded.
func (e *Engine) Run(job *Job) (*Result, error) {
	return e.RunContext(context.Background(), job)
}

// RunContext is Run with admission control and cancellation. When the
// engine carries an admission controller (SetAdmission) the job first
// waits FIFO for an execution slot — failing fast with ErrQueueFull at
// queue capacity, or with ctx's error if the context ends while queued.
// Once running, cancelling ctx (e.g. a per-job deadline) stops the driver
// from placing further task attempts and fails the job with ctx's error
// (and the partial Result) after in-flight attempts drain — on the wall
// clock and under a FaultPlan alike.
func (e *Engine) RunContext(ctx context.Context, job *Job) (*Result, error) {
	rj, err := e.resolve(job)
	if err != nil {
		return nil, err
	}
	if e.admission != nil {
		if err := e.admit(ctx, job.Name); err != nil {
			return nil, err
		}
		defer e.admission.release(e.trace.Metrics())
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
	}
	if e.Faults != nil {
		// Virtual-clock jobs serialize: the deterministic event clock and
		// the tracer's virtual base are job-at-a-time resources.
		e.faultMu.Lock()
		defer e.faultMu.Unlock()
	}
	return e.runJob(ctx, job, rj)
}

// A job is a sequence of supersteps separated by barriers: the map phase,
// the shuffle, the reduce phase. runJob writes that sequence once and
// attempt writes the task-attempt lifecycle once; what varies is the
// driver that decides when and where attempts run — runWall over the
// cluster's blocking scheduler, runVirtual as a discrete-event simulation
// on a virtual clock (virtual.go), or runLeased over a fleet of remote
// workers that pull leases and report back (leased.go).

// phase describes one superstep to a driver: which tasks exist and what one
// attempt of a task does.
type phase struct {
	phase    Phase
	numTasks int
	// body is the user half of one attempt. It has no side effects outside
	// ctx: whatever the attempt produced is installed by the returned
	// commit, which attempt calls only once the body has succeeded.
	body func(task int, ctx *TaskContext) (commit func(), err error)
	// uncommit discards a committed task's output after the node holding
	// it died. Set only for the map phase: map output lives on the
	// mapper's local disk in Hadoop, reduce output in HDFS.
	uncommit func(task int)
	// staged[task] and durs[task] hold the counters and duration of the
	// task's committed attempt. Counters are merged into the job's when
	// the phase ends, so a task re-executed after node death or raced by a
	// speculative duplicate contributes exactly once.
	staged []*Counters
	durs   []time.Duration
	metric string // the attempt-duration histogram, mr.task.<phase>.ns
}

func newPhase(p Phase, numTasks int) *phase {
	return &phase{
		phase: p, numTasks: numTasks, metric: "mr.task." + p.String() + ".ns",
		staged: make([]*Counters, numTasks),
		durs:   make([]time.Duration, numTasks),
	}
}

// jobRun is the state of one executing job, shared by the job body, the
// attempt lifecycle and the driver.
type jobRun struct {
	e   *Engine
	job *Job
	rj  *resolvedJob
	res *Result
	tr  *obs.Tracer
	// drive runs every task of a phase to a committed attempt, or fails.
	drive func(ctx context.Context, ph *phase) error
	// v is the virtual clock; nil on the wall clock.
	v *vdriver
	// leased is the job's entry in the lease table; nil off the leased driver.
	leased *leasedJob
	// start anchors the wall clock and base places the job on the tracer's
	// timeline (wall: its offset at job start; virtual: the tracer's
	// virtual base, so consecutive virtual jobs occupy disjoint windows).
	start time.Time
	base  time.Duration
	// simSem bounds how many task bodies run while being measured; see
	// SimConfig.MeasureParallelism. Nil without a SimConfig.
	simSem chan struct{}
	// spill is the job's private copy of the engine's spill configuration,
	// pointing at a per-job directory; nil keeps map output resident.
	spill *spill.Config
	// mapOut[m][r] is committed mapper m's output for reducer r, and
	// reduceIn[r] the resident part of it, concatenated and grouped by the
	// shuffle; reduceOut[r] is committed reducer r's output.
	mapOut    [][]segment
	reduceIn  []arenaGroups
	reduceOut [][]Record
}

// now is the job's clock: host time since job start, or the virtual event
// clock. TaskRecord.Start and every span the job records count from it.
func (j *jobRun) now() time.Duration {
	if j.v != nil {
		return j.v.now
	}
	return time.Since(j.start)
}

// record stores a driver-track span given on the job's clock.
func (j *jobRun) record(name, cat string, start, end time.Duration, args ...obs.Arg) {
	j.tr.Record(obs.Span{
		Track: obs.DriverTrack, Name: name, Cat: cat,
		Start: j.base + start, End: j.base + end, Args: args,
	})
}

func (j *jobRun) taskName(ph *phase, task int) string {
	return fmt.Sprintf("%s-%s-%d", j.job.Name, ph.phase, task)
}

// attempt is one task attempt run in this process: build the TaskContext,
// run the body under guard, time it, settle. rec arrives carrying what the
// driver decided (task, attempt number, node, slot, and on the virtual clock
// the attempt's scheduled window); on the wall clock the window is measured
// here.
func (j *jobRun) attempt(ph *phase, rec TaskRecord) error {
	ctx := &TaskContext{
		Job:         j.job.Name,
		TaskID:      rec.TaskID,
		Attempt:     rec.Attempt,
		NumMappers:  j.rj.numMappers,
		NumReducers: j.rj.numReducers,
		Node:        rec.Node,
		Cache:       j.job.Cache,
		Counters:    NewCounters(),
	}
	if j.v == nil && j.tr != nil {
		// Wall-clock spans from task bodies would pollute a virtual trace.
		ctx.Trace, ctx.Track = j.tr, cluster.SlotTrack(rec.Node, rec.Slot)
	}
	var commit func()
	start := j.now()
	err := j.guard(ph, rec, func() (err error) {
		if j.simSem != nil {
			j.simSem <- struct{}{}
			defer func() { <-j.simSem }()
		}
		start = j.now()
		if commit, err = ph.body(rec.TaskID, ctx); err != nil {
			err = fmt.Errorf("%s task %d on %s: %w", ph.phase, rec.TaskID, rec.Node, err)
		}
		return err
	})
	if j.v == nil {
		rec.Start, rec.Duration = start, j.now()-start
	}
	return j.settle(ph, rec, ctx.Counters, commit, err)
}

// guard is the head of every attempt, wherever its body ran: consult the
// fault sources (FaultInjector, then the FaultPlan's crash schedule) and run
// body, a panic — user code's or injected — becoming an error.
func (j *jobRun) guard(ph *phase, rec TaskRecord, body func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s task %d on %s: panic: %v", ph.phase, rec.TaskID, rec.Node, p)
		}
	}()
	if j.e.FaultInjector != nil {
		if err := j.e.FaultInjector(ph.phase, rec.TaskID, rec.Attempt); err != nil {
			return err
		}
	}
	if j.e.Faults != nil {
		switch j.e.Faults.crash(ph.phase, rec.TaskID, rec.Attempt) {
		case crashError:
			return fmt.Errorf("fault: injected crash (%s task %d attempt %d on %s)", ph.phase, rec.TaskID, rec.Attempt, rec.Node)
		case crashPanic:
			panic(fmt.Sprintf("fault: injected panic (%s task %d attempt %d on %s)", ph.phase, rec.TaskID, rec.Attempt, rec.Node))
		}
	}
	return body()
}

// settle is the tail of every attempt: on success commit its output, stage
// its counters and observe its duration; put it on record either way.
func (j *jobRun) settle(ph *phase, rec TaskRecord, counters *Counters, commit func(), err error) error {
	if err != nil {
		rec.Err = err.Error()
	} else {
		commit()
		ph.staged[rec.TaskID], ph.durs[rec.TaskID] = counters, rec.Duration
		j.tr.Metrics().Observe(ph.metric, int64(rec.Duration))
	}
	j.res.History.Append(rec)
	return err
}

// failed books a failed attempt against its task's budget; a non-nil return
// says the budget is spent. Kills are never booked.
func (j *jobRun) failed(ph *phase, rec TaskRecord, failures *int, err error) error {
	j.attemptSpan(ph, rec, "error")
	j.res.Counters.Add(CounterTaskFailures, 1)
	if *failures++; *failures >= j.rj.maxAttempts {
		return fmt.Errorf("task %q failed after %d attempts: %w", j.taskName(ph, rec.TaskID), *failures, err)
	}
	return nil
}

// kill puts an attempt its driver took back — it never ran, or was never
// heard from — on record. A kill is a scheduling decision, not a failure.
func (j *jobRun) kill(ph *phase, rec TaskRecord, reason string) {
	rec.Err, rec.Killed = reason, true
	j.res.History.Append(rec)
	j.attemptSpan(ph, rec, "killed")
}

// attemptSpan records one finished (committed, failed or killed) attempt on
// its slot track, for the drivers that place attempts themselves.
func (j *jobRun) attemptSpan(ph *phase, rec TaskRecord, state string) {
	j.tr.Record(obs.Span{
		Track: cluster.SlotTrack(rec.Node, rec.Slot),
		Name:  j.taskName(ph, rec.TaskID), Cat: obs.CatTask,
		Start: j.base + rec.Start, End: j.base + rec.Start + rec.Duration,
		Args: []obs.Arg{
			{Key: "attempt", Value: strconv.Itoa(rec.Attempt)},
			{Key: "state", Value: state},
		},
	})
}

// runWall is the wall-clock driver: the phase's tasks become goroutines
// contending for the cluster's slots, retried on other nodes up to the
// attempt budget.
func (j *jobRun) runWall(ctx context.Context, ph *phase) error {
	tasks := make([]cluster.Task, ph.numTasks)
	for t := range tasks {
		attempts := 0 // one task's attempts run one after another
		tasks[t] = cluster.Task{
			Name: j.taskName(ph, t),
			Run: func(node string, slot int) error {
				attempts++
				return j.attempt(ph, TaskRecord{Phase: ph.phase, TaskID: t, Attempt: attempts, Node: node, Slot: slot})
			},
		}
	}
	return j.e.cluster.RunContext(ctx, tasks, j.rj.maxAttempts, &j.res.ClusterStats)
}

// runPhase hands one phase to the driver between its span and the merge of
// the counters its committed attempts staged.
func (j *jobRun) runPhase(ctx context.Context, ph *phase) error {
	t0 := j.now()
	err := j.drive(ctx, ph)
	j.record(ph.phase.String(), obs.CatPhase, t0, j.now(), stateArg(err))
	for _, c := range ph.staged {
		if c != nil {
			j.res.Counters.Merge(c)
		}
	}
	return err
}

// runJob is the job body: map phase, shuffle, reduce phase, result.
func (e *Engine) runJob(ctx context.Context, job *Job, rj *resolvedJob) (_ *Result, retErr error) {
	j := &jobRun{
		e: e, job: job, rj: rj, tr: e.jobTracer(job),
		res:    &Result{Counters: NewCounters(), History: &History{}},
		mapOut: make([][]segment, rj.numMappers),
	}
	switch {
	case e.leases != nil:
		j.drive, j.base = j.runLeased, j.tr.Now()
	case e.Faults != nil:
		j.v = newVDriver(e.cluster, e.Faults, e.Sim)
		j.drive, j.base = j.runVirtual, j.tr.VirtualBase()
	default:
		j.drive, j.base = j.runWall, j.tr.Now()
	}
	j.start = time.Now()
	res := j.res
	fail := func(err error) (*Result, error) {
		return res, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
	}
	defer func() {
		j.record("job:"+job.Name, obs.CatJob, 0, j.now(),
			obs.Arg{Key: "mappers", Value: strconv.Itoa(rj.numMappers)},
			obs.Arg{Key: "reducers", Value: strconv.Itoa(rj.numReducers)},
			stateArg(retErr))
		if j.v != nil {
			j.tr.AdvanceVirtualBase(j.base + j.now())
		}
	}()
	if e.Spill.Enabled() {
		dir, err := os.MkdirTemp(e.Spill.Dir, "job-")
		if err != nil {
			return fail(fmt.Errorf("creating spill directory: %w", err))
		}
		defer os.RemoveAll(dir)
		cfg := *e.Spill
		cfg.Dir = dir
		if cfg.Metrics == nil {
			// The mr.spill.* series are counts, never host timings, so they
			// are as deterministic as the rest of a virtual trace.
			cfg.Metrics = j.tr.Metrics()
		}
		j.spill = &cfg
	}
	if e.Sim != nil {
		j.simSem = make(chan struct{}, e.Sim.measureSlots(e.cluster.TotalSlots()))
	}
	if e.leases != nil {
		if err := e.leases.open(j); err != nil {
			return fail(err)
		}
		defer e.leases.close(j.leased)
	}

	// ---- Map phase -------------------------------------------------------
	maps := newPhase(PhaseMap, rj.numMappers)
	maps.body = func(m int, ctx *TaskContext) (func(), error) {
		segs, err := attemptMap(job, rj, rj.splits[m], ctx)
		if err != nil {
			return nil, err
		}
		if err := j.spillSegments(segs, m, ctx.Attempt); err != nil {
			return nil, fmt.Errorf("spilling output: %w", err)
		}
		return func() {
			if j.tr != nil {
				var n int64
				for r := range segs {
					n += segs[r].payloadBytes()
				}
				j.tr.Metrics().Observe("mr.spill.map.bytes", n)
			}
			j.mapOut[m] = segs
		}, nil
	}
	maps.uncommit = func(m int) {
		for r := range j.mapOut[m] {
			removeRunFiles(j.mapOut[m][r].runs)
		}
		j.mapOut[m] = nil
	}
	if err := j.runPhase(ctx, maps); err != nil {
		return fail(err)
	}
	res.MapTime = time.Since(j.start)
	if err := ctx.Err(); err != nil {
		return fail(err)
	}

	// ---- Shuffle ---------------------------------------------------------
	reduceStart := time.Now()
	t0 := j.now()
	perReducerBytes, err := j.shuffle()
	j.record("shuffle", obs.CatPhase, t0, j.now(), stateArg(err))
	if err != nil {
		return fail(err)
	}

	// ---- Reduce phase ----------------------------------------------------
	// A node death timed after the map phase ends is applied at reduce
	// start: the shuffle has already fetched every segment by then, so only
	// the node's slots are lost — no map re-execution, matching a tracker
	// lost after its outputs were pulled.
	j.reduceOut = make([][]Record, rj.numReducers)
	reduces := newPhase(PhaseReduce, rj.numReducers)
	reduces.body = j.reduceTask
	if err := j.runPhase(ctx, reduces); err != nil {
		return fail(err)
	}
	res.ReduceTime = time.Since(reduceStart)

	if e.Sim != nil {
		if j.v != nil {
			// The virtual clock has already charged every attempt — crashed,
			// killed and duplicate ones included — and the shuffle transfer
			// to slot time; only the per-job setup remains to be added.
			res.SimulatedTime = e.Sim.withDefaults().JobSetup + j.v.now
		} else {
			res.SimulatedTime = e.Sim.simulate(maps.durs, reduces.durs, perReducerBytes, e.cluster.SlotSpeeds())
		}
	}
	for _, out := range j.reduceOut {
		res.Output = append(res.Output, out...)
	}
	return res, nil
}

// reduceTask is the reduce phase's body. Its commit keeps the attempt's
// output and lets go of the reducer's shuffled input: no later attempt of a
// committed task runs, and one already running holds its own copy of the
// groups (reduce).
func (j *jobRun) reduceTask(r int, ctx *TaskContext) (func(), error) {
	out, err := j.reduce(r, ctx)
	if err != nil {
		return nil, err
	}
	return func() { j.reduceOut[r], j.reduceIn[r] = arenaRecords(&out), arenaGroups{} }, nil
}

// attemptMap executes the user half of one map-task attempt: feed the split
// through a fresh Mapper, partition its output into per-reducer segments,
// and record the attempt's I/O counters in
// ctx.Counters. It has no side effects outside ctx and its return value, so
// an attempt can be retried, discarded or re-run for repair freely.
func attemptMap(job *Job, rj *resolvedJob, split Split, ctx *TaskContext) ([]segment, error) {
	segs := make([]segment, rj.numReducers)
	emitted := int64(0)
	// A partitioner that routes outside [0, numReducers) fails the task
	// attempt — recorded here and surfaced after the mapper returns, so it
	// flows through the retry and MaxAttempts machinery like any other task
	// error instead of panicking past it.
	var emitErr error
	emit := func(key, value []byte) {
		if emitErr != nil {
			return
		}
		r := rj.partition(key, rj.numReducers)
		if r < 0 || r >= rj.numReducers {
			emitErr = fmt.Errorf("partitioner returned %d for %d reducers (key %q)", r, rj.numReducers, key)
			return
		}
		segs[r].arena.Add(key, value)
		emitted++
	}
	mapper := job.NewMapper()
	inRecords, err := mapSplit(mapper, split, ctx, emit)
	if err == nil {
		err = mapper.Flush(ctx, emit)
	}
	if err == nil {
		err = emitErr
	}
	if err != nil {
		return nil, err
	}
	ctx.Counters.Add(CounterMapInputRecords, inRecords)
	ctx.Counters.Add(CounterMapOutputRecords, emitted)
	return segs, nil
}

// mapSplit feeds split through mapper and returns how many records it
// read: a RowsMapper's whole split in one MapRows call (splitRows), any
// other mapper's record by record through Map. An empty split is never
// mapped, as Map is never called on one.
func mapSplit(mapper Mapper, split Split, ctx *TaskContext, emit Emitter) (int64, error) {
	rm, ok := mapper.(RowsMapper)
	if !ok {
		n := int64(0)
		err := split.Each(func(rec Record) error {
			n++
			return mapper.Map(ctx, rec, emit)
		})
		return n, err
	}
	rows, err := splitRows(split)
	if err != nil || len(rows) == 0 {
		return 0, err
	}
	return int64(len(rows)), rm.MapRows(ctx, rows, emit)
}

// attemptReduce executes the user half of one reduce-task attempt, pulling
// its input from src — a sorted in-memory arena or a spilled run merge;
// both sources present the identical (key order, per-key value order)
// group stream. Like attemptMap it is free of external side effects.
func attemptReduce(job *Job, src groupSource, ctx *TaskContext) (frame.Arena, error) {
	var out frame.Arena
	emitted := int64(0)
	emit := func(key, value []byte) {
		out.Add(key, value)
		emitted++
	}
	reducer := job.NewReducer()
	inRecords := int64(0)
	inKeys := int64(0)
	for {
		key, vals, ok, err := src.Next()
		if err != nil {
			return frame.Arena{}, err
		}
		if !ok {
			break
		}
		inKeys++
		inRecords += int64(len(vals))
		if err := reducer.Reduce(ctx, key, vals, emit); err != nil {
			return frame.Arena{}, err
		}
	}
	if err := reducer.Flush(ctx, emit); err != nil {
		return frame.Arena{}, err
	}
	ctx.Counters.Add(CounterReduceInputKeys, inKeys)
	ctx.Counters.Add(CounterReduceInputRecords, inRecords)
	ctx.Counters.Add(CounterReduceOutputRecords, emitted)
	return out, nil
}
