package mapreduce

import (
	"bytes"
	"reflect"
	"testing"

	"mrskyline/internal/frame"
)

// TestCommittedReducerDropsItsInput: committing a reduce attempt keeps its
// output and empties the reducer's shuffled-input slot, so the input does
// not live until the job ends; an attempt that was already running when
// another committed reduces the whole input it started with.
func TestCommittedReducerDropsItsInput(t *testing.T) {
	var in frame.Arena
	in.Add([]byte("b"), []byte("3"))
	in.Add([]byte("a"), []byte("1"))
	in.Add([]byte("a"), []byte("2"))
	var commitFirst func()
	job := &Job{NewReducer: func() Reducer {
		return ReducerFuncs{ReduceFn: func(_ *TaskContext, key []byte, values [][]byte, emit Emitter) error {
			if commitFirst != nil {
				commitFirst() // the other attempt commits while this one runs
				commitFirst = nil
			}
			emit(key, bytes.Join(values, []byte(",")))
			return nil
		}}
	}}
	j := &jobRun{
		e: &Engine{}, job: job, rj: &resolvedJob{numReducers: 1}, res: &Result{},
		reduceIn: []arenaGroups{groupArena(&in)}, reduceOut: make([][]Record, 1),
	}
	want := []Record{{Key: []byte("a"), Value: []byte("1,2")}, {Key: []byte("b"), Value: []byte("3")}}

	first, err := j.reduceTask(0, &TaskContext{Counters: NewCounters()})
	if err != nil {
		t.Fatal(err)
	}
	commitFirst = first
	second, err := j.reduceTask(0, &TaskContext{Counters: NewCounters()})
	if err != nil {
		t.Fatal(err)
	}
	if commitFirst != nil {
		t.Fatal("the second attempt never ran its first group")
	}
	if !reflect.DeepEqual(j.reduceIn[0], arenaGroups{}) {
		t.Errorf("committed reducer's input slot still holds %+v", j.reduceIn[0])
	}
	if !reflect.DeepEqual(j.reduceOut[0], want) {
		t.Errorf("committed output %q, want %q", j.reduceOut[0], want)
	}
	second()
	if !reflect.DeepEqual(j.reduceOut[0], want) {
		t.Errorf("the attempt running across the commit output %q, want %q", j.reduceOut[0], want)
	}
}
