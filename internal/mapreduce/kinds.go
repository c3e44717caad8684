package mapreduce

import (
	"fmt"
	"os"
	"sync"

	"mrskyline/internal/frame"
	"mrskyline/internal/spill"
)

// Jobs built in the driver close over live Go state (grids, bitstrings,
// configuration), which cannot cross a process boundary. The kind registry
// is the bridge: a job that sets Job.Kind and Job.Spec names a registered
// builder that reconstructs its Mapper/Reducer/Partition functions
// from the spec bytes alone. Worker processes link the same binary, so a
// kind registered in an init() on the driver is registered in the worker
// too; everything else the tasks need travels in the job's distributed
// cache. The in-process Engine ignores Kind entirely — it always uses the
// closures — so registering a kind never changes in-process behaviour, and
// the two paths stay byte-for-byte comparable.

// JobFuncs is the executable half of a job, reconstructed from a spec by a
// registered kind builder. Partition may be nil (hash partitioning).
type JobFuncs struct {
	NewMapper  func() Mapper
	NewReducer func() Reducer
	Partition  PartitionFunc
}

// KindBuilder reconstructs a job's functions from its serialized spec.
type KindBuilder func(spec []byte) (*JobFuncs, error)

var (
	kindMu    sync.RWMutex
	kindTable = make(map[string]KindBuilder)
)

// RegisterKind makes a job kind available for out-of-process execution.
// Call from an init() so driver and worker binaries agree; registering the
// same name twice panics.
func RegisterKind(name string, b KindBuilder) {
	if name == "" || b == nil {
		panic("mapreduce: RegisterKind with empty name or nil builder")
	}
	kindMu.Lock()
	defer kindMu.Unlock()
	if _, dup := kindTable[name]; dup {
		panic(fmt.Sprintf("mapreduce: job kind %q registered twice", name))
	}
	kindTable[name] = b
}

// BuildKind reconstructs the functions of a registered kind.
func BuildKind(name string, spec []byte) (*JobFuncs, error) {
	kindMu.RLock()
	b, ok := kindTable[name]
	kindMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job kind %q not registered in this binary", name)
	}
	return b(spec)
}

// kindRegistered reports whether the kind is available in this binary.
func kindRegistered(name string) bool {
	kindMu.RLock()
	defer kindMu.RUnlock()
	_, ok := kindTable[name]
	return ok
}

// ---------------------------------------------------------------------------
// Wire framing

// Records and shuffle segments cross the wire as a bare internal/frame
// record stream; a segment's checksum travels beside it, in the map task's
// report. Decoding rebuilds the engine's arena representation, so grouping
// and value order on the remote path are byte-identical to the in-process
// shuffle.

// SegmentChecksum hashes a framed segment (FNV-1a over the wire bytes) —
// the role the arena checksums play for the in-process corruption/refetch
// path, applied to map-output transfers between worker processes.
func SegmentChecksum(seg []byte) uint64 { return frame.Sum(seg) }

// SegmentPayloadBytes returns the key+value volume of a framed segment —
// the quantity CounterShuffleBytes counts, excluding framing overhead so
// remote and in-process shuffle counters agree.
func SegmentPayloadBytes(seg []byte) (int64, error) {
	total := int64(0)
	err := frame.WalkRecords(seg, func(key, value []byte) error {
		total += int64(len(key) + len(value))
		return nil
	})
	return total, err
}

// decodeRecords parses a framed record stream.
func decodeRecords(b []byte) ([]Record, error) {
	var out []Record
	err := frame.WalkRecords(b, func(key, value []byte) error {
		out = append(out, Record{Key: key, Value: value})
		return nil
	})
	return out, err
}

// ---------------------------------------------------------------------------
// Remote task runtime

// RemoteTask carries everything a worker process needs to execute one task
// attempt of a kind-registered job.
type RemoteTask struct {
	// Job is the job name (errors, history).
	Job string
	// Kind and Spec identify the registered builder and its parameters.
	Kind string
	Spec []byte
	// Cache is the job's distributed cache.
	Cache Cache
	// TaskID, Attempt, NumMappers, NumReducers and Node fill the
	// TaskContext exactly as the in-process engine would.
	TaskID      int
	Attempt     int
	NumMappers  int
	NumReducers int
	Node        string
	// SpillBudget and SpillDir, when SpillBudget > 0, switch reduce
	// attempts to the external-memory merge: fetched segments are written
	// through a budget-tracked spill writer and reduced over a streaming
	// run merge instead of one materialized arena, so a worker's resident
	// reduce input stays bounded by the budget; the merge runs at the
	// spill package's default fan-in. Map attempts are unaffected — their
	// output is bounded by the split size.
	SpillBudget int64
	SpillDir    string
}

// run executes one attempt of the task through the engine's attempt
// lifecycle — the same TaskContext, panic recovery and success-only counter
// staging a driver-placed attempt gets — under a bare engine: a worker
// process has no injector, plan, tracer or History of its own (the master
// keeps the job's). The kind's functions are built inside the attempt, so a
// panicking builder is recovered like a panicking mapper. It returns the
// attempt's counters; the engine stages them only if the attempt's report
// settles as a success.
func (t *RemoteTask) run(p Phase, body func(job *Job, rj *resolvedJob, ctx *TaskContext) (func(), error)) (*Counters, error) {
	job := &Job{Name: t.Job, Cache: t.Cache}
	rj := &resolvedJob{numMappers: t.NumMappers, numReducers: max(t.NumReducers, 1)}
	j := &jobRun{e: &Engine{}, job: job, rj: rj, res: &Result{}}
	ph := newPhase(p, t.TaskID+1) // the phase as far as this worker sees it: up to its one task
	ph.body = func(_ int, ctx *TaskContext) (func(), error) {
		funcs, err := BuildKind(t.Kind, t.Spec)
		if err != nil {
			return nil, err
		}
		if funcs.NewMapper == nil || funcs.NewReducer == nil {
			return nil, fmt.Errorf("mapreduce: kind %q built incomplete JobFuncs", t.Kind)
		}
		job.NewMapper, job.NewReducer = funcs.NewMapper, funcs.NewReducer
		if rj.partition = funcs.Partition; rj.partition == nil {
			rj.partition = HashPartition
		}
		return body(job, rj, ctx)
	}
	err := j.attempt(ph, TaskRecord{Phase: p, TaskID: t.TaskID, Attempt: t.Attempt, Node: t.Node})
	return ph.staged[t.TaskID], err
}

// RunRemoteMap executes one map-task attempt on a worker process: the
// framed split records are fed through the kind's Mapper, and the
// per-reducer output comes back as framed segments (nil for empty
// segments).
func RunRemoteMap(t *RemoteTask, split []byte) (out [][]byte, counters *Counters, err error) {
	counters, err = t.run(PhaseMap, func(job *Job, rj *resolvedJob, ctx *TaskContext) (func(), error) {
		recs, err := decodeRecords(split)
		if err != nil {
			return nil, err
		}
		segs, err := attemptMap(job, rj, memorySplit(recs), ctx)
		if err != nil {
			return nil, err
		}
		return func() {
			out = make([][]byte, len(segs))
			for r := range segs {
				out[r] = segs[r].arena.AppendRecords(nil) // nil when empty
			}
		}, nil
	})
	return out, counters, err
}

// RunRemoteReduce executes one reduce-task attempt on a worker process.
// segs holds one framed segment per map task in map-task order (nil
// entries are empty segments); preserving that order reproduces the
// engine's (mapper index, emission order) value grouping exactly. The
// reducer's output comes back framed.
func RunRemoteReduce(t *RemoteTask, segs [][]byte) (output []byte, counters *Counters, err error) {
	counters, err = t.run(PhaseReduce, func(job *Job, _ *resolvedJob, ctx *TaskContext) (func(), error) {
		out, err := t.reduce(job, segs, ctx)
		if err != nil {
			return nil, err
		}
		return func() { output = out.AppendRecords(nil) }, nil
	})
	return output, counters, err
}

// reduce feeds the fetched segments to the reducer in map order. Without a
// spill budget they are decoded into one arena and sort-grouped, as the
// engine's shuffle does. With one they stream through a budget-tracked
// spill writer and the reducer consumes the merged runs, never holding the
// whole input resident; the runs inherit the (mapper index, emission order)
// arrival order, so the merge reproduces the in-memory grouping exactly.
// All files live in a per-attempt directory removed before returning; a
// run that fails its checksum fails the attempt, which the master retries
// like any other task error.
func (t *RemoteTask) reduce(job *Job, segs [][]byte, ctx *TaskContext) (frame.Arena, error) {
	each := func(add func(key, value []byte) error) error {
		for m, seg := range segs {
			if err := frame.WalkRecords(seg, add); err != nil {
				return fmt.Errorf("segment from map %d: %w", m, err)
			}
		}
		return nil
	}
	if t.SpillBudget <= 0 {
		var in frame.Arena
		err := each(func(key, value []byte) error {
			in.Add(key, value)
			return nil
		})
		if err != nil {
			return frame.Arena{}, err
		}
		src := groupArena(&in)
		return attemptReduce(job, &src, ctx)
	}
	dir, err := os.MkdirTemp(t.SpillDir, fmt.Sprintf("reduce%d-a%d-", t.TaskID, t.Attempt))
	if err != nil {
		return frame.Arena{}, fmt.Errorf("creating spill directory: %w", err)
	}
	defer os.RemoveAll(dir)
	cfg := &spill.Config{Dir: dir, Budget: t.SpillBudget}
	w := spill.NewWriter(cfg, "seg", t.TaskID)
	err = each(w.Add)
	var runs []spill.RunFile
	if err == nil {
		runs, err = w.Finish()
	}
	if err != nil {
		w.Discard()
		return frame.Arena{}, err
	}
	return reduceRuns(job, cfg, runs, "merge-", ctx)
}

// ---------------------------------------------------------------------------
// Counter transport

// CounterDump is a Counters value flattened for the wire.
type CounterDump struct {
	Sums map[string]int64
	Maxs map[string]int64
}

// Dump snapshots the counters for transport.
func (c *Counters) Dump() CounterDump {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := CounterDump{Sums: make(map[string]int64, len(c.sums)), Maxs: make(map[string]int64, len(c.maxs))}
	for k, v := range c.sums {
		d.Sums[k] = v
	}
	for k, v := range c.maxs {
		d.Maxs[k] = v
	}
	return d
}

// mergeDump folds a transported dump into c (sums add, maxes take the
// maximum), the wire twin of Merge.
func (c *Counters) mergeDump(d CounterDump) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, v := range d.Sums {
		c.sums[k] += v
	}
	for k, v := range d.Maxs {
		if v > c.maxs[k] {
			c.maxs[k] = v
		}
	}
}
