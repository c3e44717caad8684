package mapreduce_test

import (
	"encoding/hex"
	"strings"
	"testing"

	"mrskyline/internal/frame"
	"mrskyline/internal/mapreduce"
)

// goldenRecs is the fixed input of the format goldens (internal/spill and
// internal/frame pin the same list in their own shape): an empty key, an
// empty value, two keys sharing an eight-byte prefix, a duplicate key and
// a value long enough for a two-byte length prefix.
var goldenRecs = []mapreduce.Record{
	{Key: []byte("key-long-0002"), Value: []byte("yy")},
	{Key: []byte("a")},
	{Value: []byte("v0")},
	{Key: []byte("key-long-0001"), Value: []byte("x")},
	{Key: []byte("b"), Value: []byte(strings.Repeat("z", 130))},
	{Key: []byte("a"), Value: []byte("dup")},
}

// The wire segment an identity map task produces from goldenRecs for its
// one reducer, and the checksum that travels beside it — pinned before
// internal/frame existed.
var (
	goldenSegmentHex = "0d6b65792d6c6f6e672d30303032027979" + "016100" + "00027630" +
		"0d6b65792d6c6f6e672d303030310178" + "01628201" + strings.Repeat("7a", 130) + "016103647570"
	goldenSegmentSum = uint64(0x85337278f7fea11d)
)

// TestGoldenWireSegment pins what crosses rpcexec's wire: the framed
// segment RunRemoteMap hands a worker's store, and SegmentChecksum of it.
func TestGoldenWireSegment(t *testing.T) {
	job := ship(&mapreduce.Job{
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFuncs{MapFn: func(_ *mapreduce.TaskContext, rec mapreduce.Record, emit mapreduce.Emitter) error {
				emit(rec.Key, rec.Value)
				return nil
			}}
		},
		NewReducer: func() mapreduce.Reducer { return mapreduce.ReducerFuncs{} },
	})
	var split []byte
	for _, r := range goldenRecs {
		split = frame.AppendRecord(split, r.Key, r.Value)
	}
	task := &mapreduce.RemoteTask{Job: "golden", Kind: job.Kind, Spec: job.Spec, NumMappers: 1, NumReducers: 1}
	segs, _, err := mapreduce.RunRemoteMap(task, split)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want 1", len(segs))
	}
	if got := hex.EncodeToString(segs[0]); got != goldenSegmentHex {
		t.Errorf("wire segment changed:\n got %s\nwant %s", got, goldenSegmentHex)
	}
	// An identity mapper's segment is its split: one framing both ways.
	if got := hex.EncodeToString(split); got != goldenSegmentHex {
		t.Errorf("AppendRecord framing changed:\n got %s\nwant %s", got, goldenSegmentHex)
	}
	if got := mapreduce.SegmentChecksum(segs[0]); got != goldenSegmentSum {
		t.Errorf("SegmentChecksum = %#x, want %#x", got, goldenSegmentSum)
	}
	if n, err := mapreduce.SegmentPayloadBytes(segs[0]); err != nil || n != 167 {
		t.Errorf("SegmentPayloadBytes = %d, %v; want 167", n, err)
	}
}
