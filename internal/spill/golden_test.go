package spill

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRecs is the fixed input every format golden in the tree is
// written from (mapreduce, frame and wal pin the same list in their own
// shape): an empty key, an empty value, two keys sharing an eight-byte
// prefix, a duplicate key, and a value long enough for a two-byte length
// prefix. Arrival order is deliberately not key order.
var goldenRecs = []rec{
	{[]byte("key-long-0002"), []byte("yy")},
	{[]byte("a"), nil},
	{nil, []byte("v0")},
	{[]byte("key-long-0001"), []byte("x")},
	{[]byte("b"), []byte(strings.Repeat("z", 130))},
	{[]byte("a"), []byte("dup")},
}

// goldenRun is testdata/golden.run described: the file was written by the
// commit before internal/frame existed and is never regenerated.
var goldenRun = RunFile{Tag: 3, Records: 6, PayloadBytes: 167, FrameBytes: 180}

// TestGoldenRunBytes pins SKYRUN1: the writer must produce the checked-in
// file byte for byte, with the same descriptor.
func TestGoldenRunBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.run"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 1<<20, 0)
	runs := writeAll(t, cfg, "golden", 3, goldenRecs)
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	rf := runs[0]
	got, err := os.ReadFile(rf.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("SKYRUN1 bytes changed:\n got %x\nwant %x", got, want)
	}
	rf.Path = ""
	if rf != goldenRun {
		t.Errorf("RunFile = %+v, want %+v", rf, goldenRun)
	}
}

// TestGoldenRunMerges is the compatibility half: a run written by the
// earlier binary merges to the stable (key, arrival) order of its input.
func TestGoldenRunMerges(t *testing.T) {
	cfg := testConfig(t, 1<<20, 0)
	rf := goldenRun
	rf.Path = filepath.Join("testdata", "golden.run")
	got := drain(t, cfg, []RunFile{rf})
	want := stableByKey(goldenRecs)
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].k, want[i].k) || !bytes.Equal(got[i].v, want[i].v) {
			t.Errorf("record %d = (%q, %q), want (%q, %q)", i, got[i].k, got[i].v, want[i].k, want[i].v)
		}
	}
}
