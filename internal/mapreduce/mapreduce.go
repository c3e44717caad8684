// Package mapreduce is an in-process MapReduce engine: the execution
// substrate the paper's algorithms run on in this repository, standing in
// for Hadoop 1.1.0 on the authors' 13-node cluster.
//
// The engine preserves the structural properties the paper's arguments
// depend on:
//
//   - Input is split per mapper (in-memory chunks of tuple rows or of
//     encoded records) and map tasks are scheduled onto the slots of a
//     simulated multi-node cluster (internal/cluster). Where a split's
//     bytes sit is not modelled: the paper's cost model counts what
//     crosses the shuffle.
//   - Mappers and reducers are stateless tasks communicating only through
//     the key-value shuffle; all map output is genuinely serialized, so
//     communication volume is measured rather than assumed.
//   - A distributed cache ships small read-only artifacts (the global
//     bitstring) to every task, as the paper assumes ("this paper assumes
//     that the Distributed Cache, or something similar, is available").
//   - Tasks that fail are retried on other nodes, mirroring Hadoop's
//     fault tolerance; counters from failed attempts are discarded.
//   - Jobs can be chained, later phases consuming earlier results.
package mapreduce

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"mrskyline/internal/obs"
)

// Record is one key-value pair. A nil key is legal (map inputs often have
// no meaningful key).
type Record struct {
	Key   []byte
	Value []byte
}

// Values returns the values of recs, in order.
func Values(recs []Record) [][]byte {
	vals := make([][]byte, len(recs))
	for i, rec := range recs {
		vals[i] = rec.Value
	}
	return vals
}

// Emitter receives key-value pairs produced by Map and Reduce calls. The
// key and value bytes are copied into the engine's shuffle arenas before
// Emitter returns, so callers may reuse their backing arrays — emit sites
// on hot paths encode into a per-task scratch buffer via
// tuple.AppendEncode and hand the same buffer to every emit.
type Emitter func(key, value []byte)

// Cache is the distributed cache: small read-only blobs replicated to every
// task of a job before it starts.
type Cache map[string][]byte

// Get returns the named cache entry.
func (c Cache) Get(name string) ([]byte, bool) {
	v, ok := c[name]
	return v, ok
}

// MustGet returns the named cache entry or panics; tasks use it for
// entries the job setup is contractually required to provide.
func (c Cache) MustGet(name string) []byte {
	v, ok := c[name]
	if !ok {
		panic(fmt.Sprintf("mapreduce: cache entry %q missing", name))
	}
	return v
}

// TaskContext carries per-task state into Map and Reduce functions.
type TaskContext struct {
	// Job is the job name.
	Job string
	// TaskID is the mapper or reducer index within its phase.
	TaskID int
	// Attempt is 1 for the first execution and increases on retry.
	Attempt int
	// NumMappers and NumReducers describe the job's task layout.
	NumMappers  int
	NumReducers int
	// Node is the simulated cluster node executing the task.
	Node string
	// Cache is the job's distributed cache.
	Cache Cache
	// Counters is the task-local counter set; it is merged into the job's
	// counters if and only if the task attempt succeeds.
	Counters *Counters
	// Trace is the engine's tracer and Track the slot track this attempt
	// occupies (cluster.SlotTrack). Task code records algorithm-phase
	// spans with ctx.Trace.Start(ctx.Track, ...). Both are zero on the
	// virtual-clock (FaultPlan) path — wall-clock spans from task bodies
	// would pollute a virtual trace — and Trace is nil whenever tracing is
	// off, which every obs method tolerates.
	Trace *obs.Tracer
	Track string
}

// Mapper processes one input split. One Mapper instance is created per task
// attempt, so implementations may keep per-split state in struct fields
// without synchronization.
type Mapper interface {
	// Map is invoked once per input record — unless the mapper is a
	// RowsMapper, which is handed the whole split's rows in one MapRows
	// call instead (see RowsMapper).
	Map(ctx *TaskContext, rec Record, emit Emitter) error
	// Flush is invoked once after the split is exhausted. Algorithms that
	// aggregate per split (every algorithm in this repository) emit their
	// results here.
	Flush(ctx *TaskContext, emit Emitter) error
}

// RowsMapper is a Mapper that reads a whole split of tuple rows at once,
// which is how the engine feeds it: a map attempt calls MapRows once with
// its split's rows, in place of Map per record, and an empty split not at
// all. A TupleRows split goes as it is, its rows of one width by
// TupleRows' contract; any other split's records are decoded once into a
// batch, each required to be one encoded tuple of the first record's
// dimensionality (splitRows). CounterMapInputRecords counts the rows. The rows are read-only
// and outlive the attempt, so a mapper may keep a row it is handed.
type RowsMapper interface {
	Mapper
	MapRows(ctx *TaskContext, rows [][]float64, emit Emitter) error
}

// RowsMapperFuncs adapts plain functions to RowsMapper; FlushFn may be nil.
type RowsMapperFuncs struct {
	MapRowsFn func(ctx *TaskContext, rows [][]float64, emit Emitter) error
	FlushFn   func(ctx *TaskContext, emit Emitter) error
}

// MapRows implements RowsMapper.
func (m RowsMapperFuncs) MapRows(ctx *TaskContext, rows [][]float64, emit Emitter) error {
	return m.MapRowsFn(ctx, rows, emit)
}

// Map implements Mapper. The engine never calls it on a RowsMapper, so it
// only fails.
func (m RowsMapperFuncs) Map(*TaskContext, Record, Emitter) error {
	return errors.New("mapreduce: a RowsMapper reads whole splits through MapRows")
}

// Flush implements Mapper.
func (m RowsMapperFuncs) Flush(ctx *TaskContext, emit Emitter) error {
	if m.FlushFn == nil {
		return nil
	}
	return m.FlushFn(ctx, emit)
}

// Reducer processes the groups assigned to one reduce task. One Reducer
// instance is created per task attempt.
type Reducer interface {
	// Reduce is invoked once per distinct key, with all values for that
	// key in deterministic order (mapper index, then emission order).
	Reduce(ctx *TaskContext, key []byte, values [][]byte, emit Emitter) error
	// Flush is invoked once after the last key.
	Flush(ctx *TaskContext, emit Emitter) error
}

// MapperFuncs adapts plain functions to the Mapper interface; FlushFn may
// be nil.
type MapperFuncs struct {
	MapFn   func(ctx *TaskContext, rec Record, emit Emitter) error
	FlushFn func(ctx *TaskContext, emit Emitter) error
}

// Map implements Mapper.
func (m MapperFuncs) Map(ctx *TaskContext, rec Record, emit Emitter) error {
	if m.MapFn == nil {
		return nil
	}
	return m.MapFn(ctx, rec, emit)
}

// Flush implements Mapper.
func (m MapperFuncs) Flush(ctx *TaskContext, emit Emitter) error {
	if m.FlushFn == nil {
		return nil
	}
	return m.FlushFn(ctx, emit)
}

// ReducerFuncs adapts plain functions to the Reducer interface; FlushFn may
// be nil.
type ReducerFuncs struct {
	ReduceFn func(ctx *TaskContext, key []byte, values [][]byte, emit Emitter) error
	FlushFn  func(ctx *TaskContext, emit Emitter) error
}

// Reduce implements Reducer.
func (r ReducerFuncs) Reduce(ctx *TaskContext, key []byte, values [][]byte, emit Emitter) error {
	if r.ReduceFn == nil {
		return nil
	}
	return r.ReduceFn(ctx, key, values, emit)
}

// Flush implements Reducer.
func (r ReducerFuncs) Flush(ctx *TaskContext, emit Emitter) error {
	if r.FlushFn == nil {
		return nil
	}
	return r.FlushFn(ctx, emit)
}

// PartitionFunc routes a map-output key to one of r reducers.
type PartitionFunc func(key []byte, r int) int

// HashPartition is the default partitioner: FNV-1a modulo reducer count.
func HashPartition(key []byte, r int) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(r))
}

// IntKey renders an integer id as the 8-byte big-endian shuffle key every
// job of this repository keys its partitions, buckets and levels by: for
// non-negative ids the engine's lexicographic key order is numeric order.
func IntKey(id int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return b[:]
}

// ParseIntKey recovers the id of a key made by IntKey.
func ParseIntKey(k []byte) (int, error) {
	if len(k) != 8 {
		return 0, fmt.Errorf("mapreduce: malformed key of %d bytes", len(k))
	}
	return int(binary.BigEndian.Uint64(k)), nil
}
