package mapreduce

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"

	"mrskyline/internal/frame"
	"mrskyline/internal/obs"
	"mrskyline/internal/spill"
)

// Map output between the phases. A segment — one mapper's records for one
// reducer — is either resident (a frame.Arena) or, when the job carries a
// spill configuration, a set of sorted run files on disk (one writer per
// segment, so runs inherit the segment's arrival order). The reducer
// consumes both shapes through the groupSource interface below, which
// presents the identical (key order, per-key value order) stream either
// way — the basis of the spilled-versus-resident byte-identity property
// the tests pin down.

// segment is mapper m's output for reducer r: resident bytes, or the run
// files they were flushed to.
type segment struct {
	arena frame.Arena
	runs  []spill.RunFile
}

// payloadBytes is the segment's key+value volume wherever it lives — the
// quantity CounterShuffleBytes measures.
func (s *segment) payloadBytes() int64 {
	n := int64(len(s.arena.Bytes()))
	for _, rf := range s.runs {
		n += rf.PayloadBytes
	}
	return n
}

// groupSource streams one reduce attempt's input as per-key groups in key
// order; *spill.Groups is one, arenaGroups the other. ok is false when the
// input is cleanly drained. Returned slices are valid until the following
// Next call.
type groupSource interface {
	Next() (key []byte, vals [][]byte, ok bool, err error)
}

// arenaGroups serves groups from a sorted in-memory arena. The zero value
// is an empty source; a copy of a value restarts the stream.
type arenaGroups struct {
	in     *frame.Arena
	idx    []int32
	groups []frame.Span
	pos    int
}

// groupArena sorts and groups an arena for reduction.
func groupArena(in *frame.Arena) arenaGroups {
	idx := in.SortedIndex()
	return arenaGroups{in: in, idx: idx, groups: in.GroupRuns(idx)}
}

func (g *arenaGroups) Next() ([]byte, [][]byte, bool, error) {
	if g.pos >= len(g.groups) {
		return nil, nil, false, nil
	}
	sp := g.groups[g.pos]
	g.pos++
	key := g.in.Key(int(g.idx[sp.Lo]))
	vals := make([][]byte, 0, sp.Hi-sp.Lo)
	for _, i := range g.idx[sp.Lo:sp.Hi] {
		vals = append(vals, g.in.Value(int(i)))
	}
	return key, vals, true, nil
}

// arenaRecords materializes an arena as []Record views for Result.Output.
func arenaRecords(a *frame.Arena) []Record {
	if a.Len() == 0 {
		return nil
	}
	out := make([]Record, a.Len())
	for i := range out {
		out[i] = Record{Key: a.Key(i), Value: a.Value(i)}
	}
	return out
}

// removeRunFiles deletes run files, best effort.
func removeRunFiles(runs []spill.RunFile) {
	for _, rf := range runs {
		os.Remove(rf.Path)
	}
}

// spillArena writes one arena's records (arrival order preserved) through
// a budget-tracked writer, producing the segment's sorted runs. An empty
// arena produces no runs.
func spillArena(cfg *spill.Config, b *frame.Arena, prefix string, tag int) ([]spill.RunFile, error) {
	w := spill.NewWriter(cfg, prefix, tag)
	for i := 0; i < b.Len(); i++ {
		if err := w.Add(b.Key(i), b.Value(i)); err != nil {
			w.Discard()
			return nil, err
		}
	}
	runs, err := w.Finish()
	if err != nil {
		w.Discard()
		return nil, err
	}
	return runs, nil
}

// spillSegments is the map attempt's choice of output sink: without a
// spill configuration the segments stay resident; with one, each is
// flushed to run files and its arena released as it lands on disk. The
// attempt number keys the file names so a retried attempt never collides
// with a previous one's files.
func (j *jobRun) spillSegments(segs []segment, m, attempt int) error {
	if j.spill == nil {
		return nil
	}
	for r := range segs {
		runs, err := spillArena(j.spill, &segs[r].arena, fmt.Sprintf("m%d-a%d-r%d", m, attempt, r), m)
		if err != nil {
			for _, prev := range segs[:r] {
				removeRunFiles(prev.runs)
			}
			return err
		}
		segs[r] = segment{runs: runs}
	}
	return nil
}

// shuffle moves the committed map output to the reducers and reports each
// reducer's input volume. Resident segments are concatenated per reducer
// (mapper order preserved, so values group per key in (mapper index,
// emission order)) and sort-grouped driver-side, outside measured task
// bodies; spilled segments stay where they are — each reduce attempt
// merges its runs lazily — so for them this is pure accounting.
//
// When the engine carries a FaultPlan, every resident non-empty segment is
// checksummed before being fetched and the fetched bytes are verified
// against that checksum; the plan may corrupt a segment's first fetch, in
// which case the mismatch is detected, counted in
// CounterShuffleCorruptions, and the segment refetched — Hadoop reducers
// re-pull a map output whose IFile checksum fails the same way.
//
// Each reducer's fetch is a span on the job's clock. The virtual clock
// stands still while the host copies bytes, so there the fetch lasts its
// modelled transfer time and the slowest one advances the clock.
//
// A fleet's map output never comes here: its reducers pull their segments
// from the workers holding them and report the volume.
func (j *jobRun) shuffle() ([]int64, error) {
	if j.leased != nil {
		return nil, nil
	}
	rj := j.rj
	j.reduceIn = make([]arenaGroups, rj.numReducers)
	perReducerBytes := make([]int64, rj.numReducers)
	shuffleBytes := int64(0)
	for r := range perReducerBytes {
		t0 := j.now()
		var dataLen, recCount int
		for m := range j.mapOut {
			dataLen += len(j.mapOut[m][r].arena.Bytes())
			recCount += j.mapOut[m][r].arena.Len()
		}
		in := &frame.Arena{}
		in.Grow(dataLen, recCount)
		for m := range j.mapOut {
			seg := &j.mapOut[m][r]
			perReducerBytes[r] += seg.payloadBytes()
			fetched := &seg.arena
			if j.e.Faults != nil && fetched.Len() > 0 {
				want := fetched.Checksum()
				fetched = j.e.Faults.fetch(fetched, m, r)
				if fetched.Checksum() != want {
					j.res.Counters.Add(CounterShuffleCorruptions, 1)
					fetched = &seg.arena // refetch the pristine segment
					if fetched.Checksum() != want {
						return nil, fmt.Errorf("shuffle: segment map %d → reduce %d corrupt after refetch", m, r)
					}
				}
			}
			in.Absorb(fetched)
			seg.arena = frame.Arena{} // release as we go
		}
		n := perReducerBytes[r]
		shuffleBytes += n
		j.tr.Metrics().Observe("mr.shuffle.reducer.bytes", n)
		j.record("fetch:r"+strconv.Itoa(r), obs.CatShuffle, t0, j.now()+j.transfer(n),
			obs.Arg{Key: "bytes", Value: strconv.FormatInt(n, 10)})
		j.reduceIn[r] = groupArena(in)
	}
	j.res.Counters.Add(CounterShuffleBytes, shuffleBytes)
	if j.v != nil {
		j.v.now += j.transfer(perReducerBytes...)
	}
	return perReducerBytes, nil
}

// transfer is what the virtual clock charges for reducers pulling the
// given volumes in parallel, one link each: the slowest pull, priced by
// the SimConfig's bandwidth. The wall clock charges itself, and a virtual
// clock without a SimConfig moves data for free.
func (j *jobRun) transfer(perReducerBytes ...int64) time.Duration {
	if j.v == nil || j.e.Sim == nil {
		return 0
	}
	return j.e.Sim.withDefaults().shuffleTime(perReducerBytes)
}

// fetch models one reducer pulling one mapper's output segment: under the
// plan's corruption schedule the first fetch returns a copy with one
// deterministically chosen byte flipped; otherwise the pristine segment is
// returned directly (no copy).
func (p *FaultPlan) fetch(seg *frame.Arena, m, r int) *frame.Arena {
	if !p.corruptSegment(m, r) {
		return seg
	}
	var bad frame.Arena
	bad.Absorb(seg)
	data := bad.Bytes()
	i := int(p.roll("corrupt-byte", int64(m), int64(r)) * float64(len(data)))
	if i >= len(data) {
		i = len(data) - 1
	}
	data[i] ^= 0xFF
	return &bad
}

// reduce is the reduce attempt's choice of input source: the arena the
// shuffle grouped, or a merge of the reducer's spilled runs.
func (j *jobRun) reduce(r int, ctx *TaskContext) (frame.Arena, error) {
	if j.spill == nil {
		src := j.reduceIn[r]
		return attemptReduce(j.job, &src, ctx)
	}
	return j.reduceSpilled(r, ctx)
}

// maxSpillRepairs bounds how many corrupt source runs one reduce attempt
// repairs (by re-executing the producing map task) before the attempt
// fails outright and falls back to the driver's retry budget.
const maxSpillRepairs = 2

// reduceSpilled merges this reducer's runs under the budget and streams
// the groups through the reducer; when a source run fails its checksum it
// re-executes the map task that produced it and tries again — the spilled
// twin of the shuffle refetch.
func (j *jobRun) reduceSpilled(r int, ctx *TaskContext) (frame.Arena, error) {
	for repair := 0; ; repair++ {
		var runs []spill.RunFile
		for m := range j.mapOut {
			runs = append(runs, j.mapOut[m][r].runs...)
		}
		// Each try runs against fresh task counters so a half-consumed
		// corrupt try cannot double-count; only the successful try merges.
		try := *ctx
		try.Counters = NewCounters()
		out, err := reduceRuns(j.job, j.spill, runs, fmt.Sprintf("r%d-a%d-p%d-", r, ctx.Attempt, repair), &try)
		if err == nil {
			ctx.Counters.Merge(try.Counters)
			return out, nil
		}
		var ce *spill.CorruptError
		if !errors.As(err, &ce) {
			return frame.Arena{}, err
		}
		j.res.Counters.Add(CounterShuffleCorruptions, 1)
		if ce.Tag < 0 || repair >= maxSpillRepairs {
			return frame.Arena{}, err
		}
		if rerr := j.respill(ce.Tag, r, repair, ctx); rerr != nil {
			return frame.Arena{}, fmt.Errorf("repairing corrupt run: %w", rerr)
		}
	}
}

// respill re-executes map task m inside reducer r's attempt — on its node,
// under its panic recovery — and rewrites the (m, r) segment's runs,
// replacing the corrupt set. attemptMap is free of side effects, so
// re-running it is always safe; its counters are dropped, because the
// map task's committed attempt already contributed. Distinct reducers
// repair distinct (m, r) segments, so concurrent repairs of the same
// mapper never collide.
func (j *jobRun) respill(m, r, repair int, ctx *TaskContext) error {
	mctx := *ctx
	mctx.TaskID, mctx.Counters = m, NewCounters()
	segs, err := attemptMap(j.job, j.rj, j.rj.splits[m], &mctx)
	if err != nil {
		return fmt.Errorf("re-executing map task %d: %w", m, err)
	}
	runs, err := spillArena(j.spill, &segs[r].arena, fmt.Sprintf("m%d-r%d-a%d-p%d", m, r, ctx.Attempt, repair), m)
	if err != nil {
		return err
	}
	removeRunFiles(j.mapOut[m][r].runs)
	j.mapOut[m][r].runs = runs
	return nil
}

// reduceRuns is the reduce body over spilled input: merge the runs under
// the budget and stream the groups through the reducer. Intermediate merge
// runs live in a directory (created under cfg.Dir from dirPattern) removed
// when the call returns; the source runs are never deleted here — they are
// the repair path's input.
func reduceRuns(job *Job, cfg *spill.Config, runs []spill.RunFile, dirPattern string, ctx *TaskContext) (frame.Arena, error) {
	if len(runs) == 0 {
		return attemptReduce(job, &arenaGroups{}, ctx)
	}
	dir, err := os.MkdirTemp(cfg.Dir, dirPattern)
	if err != nil {
		return frame.Arena{}, err
	}
	defer os.RemoveAll(dir)
	final, _, err := spill.MergeTree(cfg, dir, "merge", runs)
	if err != nil {
		return frame.Arena{}, err
	}
	g, err := spill.NewGroups(cfg, final)
	if err != nil {
		return frame.Arena{}, err
	}
	defer g.Close()
	return attemptReduce(job, g, ctx)
}
