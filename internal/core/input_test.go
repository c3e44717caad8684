package core_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"mrskyline/internal/core"
	"mrskyline/internal/datagen"
	"mrskyline/internal/dfs"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/skyline"
	"mrskyline/internal/tuple"
)

// TestFromDFSEndToEnd exercises the full HDFS-like path the paper's jobs
// run on: a CSV dataset written into the simulated distributed file
// system, split per block, parsed by the CSV record decoder inside map
// tasks, and pushed through PPD selection + both skyline algorithms.
func TestFromDFSEndToEnd(t *testing.T) {
	const card, d = 1500, 3
	data := datagen.Generate(datagen.AntiCorrelated, card, d, 19)
	want := skyline.Naive(data)

	var buf bytes.Buffer
	if err := datagen.WriteCSV(&buf, data); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(t, 4, 2)
	fsys, err := dfs.New(dfs.Config{
		BlockSize:   2048, // many blocks → many splits → real healing at work
		Replication: 2,
		Nodes:       cfg.Engine.(*mapreduce.Engine).Cluster().Nodes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile("data.csv", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	info, err := fsys.Stat("data.csv")
	if err != nil {
		t.Fatal(err)
	}
	if info.Blocks < 4 {
		t.Fatalf("dataset occupies only %d blocks; splits untested", info.Blocks)
	}

	cfg.DecodeRecord = core.CSVRecordDecoder(d)
	cfg.NumReducers = 3
	input := mapreduce.DFSLineInput{FS: fsys, Path: "data.csv"}

	for _, run := range []struct {
		name string
		fn   func() (tuple.List, *core.Stats, error)
	}{
		{"GPSRS", func() (tuple.List, *core.Stats, error) {
			return core.GPSRSFromInput(cfg, input, d, card)
		}},
		{"GPMRS", func() (tuple.List, *core.Stats, error) {
			return core.GPMRSFromInput(cfg, input, d, card)
		}},
	} {
		got, stats, err := run.fn()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if !tuple.EqualAsSet(got, want) {
			t.Fatalf("%s from DFS: wrong skyline (%d vs %d)", run.name, len(got), len(want))
		}
		if !stats.AutoPPD {
			t.Errorf("%s: PPD job did not run", run.name)
		}
	}
}

// TestFromDFSWithComments checks that the CSV decoder skips comments and
// blank lines flowing through the engine.
func TestFromDFSWithComments(t *testing.T) {
	cfg := testConfig(t, 2, 1)
	fsys, err := dfs.New(dfs.Config{BlockSize: 16, Replication: 1, Nodes: cfg.Engine.(*mapreduce.Engine).Cluster().Nodes()})
	if err != nil {
		t.Fatal(err)
	}
	content := "# header\n0.1,0.9\n\n0.9,0.1\n# mid comment\n0.5,0.5\n"
	if err := fsys.WriteFile("d.csv", []byte(content)); err != nil {
		t.Fatal(err)
	}
	cfg.DecodeRecord = core.CSVRecordDecoder(2)
	cfg.PPD = 2
	got, _, err := core.GPSRSFromInput(cfg, mapreduce.DFSLineInput{FS: fsys, Path: "d.csv"}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := tuple.List{{0.1, 0.9}, {0.9, 0.1}, {0.5, 0.5}}
	if !tuple.EqualAsSet(got, want) {
		t.Fatalf("skyline = %v, want %v", got, want)
	}
}

// TestFromDFSBadRecordFailsJob checks that a malformed record surfaces as
// a job error rather than being silently dropped.
func TestFromDFSBadRecordFails(t *testing.T) {
	cfg := testConfig(t, 2, 1)
	fsys, _ := dfs.New(dfs.Config{BlockSize: 64, Replication: 1, Nodes: cfg.Engine.(*mapreduce.Engine).Cluster().Nodes()})
	fsys.WriteFile("bad.csv", []byte("0.1,0.2\nnot,numbers,here\n"))
	cfg.DecodeRecord = core.CSVRecordDecoder(2)
	cfg.PPD = 2
	cfg.MaxAttempts = 1
	if _, _, err := core.GPSRSFromInput(cfg, mapreduce.DFSLineInput{FS: fsys, Path: "bad.csv"}, 2, 2); err == nil {
		t.Fatal("malformed record accepted")
	}
	// Wrong arity is also rejected.
	fsys.WriteFile("ragged.csv", []byte("0.1,0.2\n0.3,0.4,0.5\n"))
	if _, _, err := core.GPSRSFromInput(cfg, mapreduce.DFSLineInput{FS: fsys, Path: "ragged.csv"}, 2, 2); err == nil {
		t.Fatal("ragged record accepted")
	}
}

// TestFromDFSNonFiniteRecordFails: strconv.ParseFloat reads "NaN" and
// "+Inf" without complaint, and the kernels' contract is finite inputs, so
// the decoder is where such a record has to stop the job — by name.
func TestFromDFSNonFiniteRecordFails(t *testing.T) {
	cfg := testConfig(t, 2, 1)
	fsys, _ := dfs.New(dfs.Config{BlockSize: 64, Replication: 1, Nodes: cfg.Engine.(*mapreduce.Engine).Cluster().Nodes()})
	cfg.DecodeRecord = core.CSVRecordDecoder(2)
	cfg.PPD = 2
	cfg.MaxAttempts = 1
	for _, rec := range []string{"NaN,0.5", "0.5,+Inf", "-inf,0.5"} {
		fsys.WriteFile("d.csv", []byte("0.1,0.2\n"+rec+"\n0.3,0.1\n"))
		for name, run := range map[string]func(core.Config, mapreduce.Input, int, int) (tuple.List, *core.Stats, error){
			"GPSRS": core.GPSRSFromInput, "GPMRS": core.GPMRSFromInput,
		} {
			_, _, err := run(cfg, mapreduce.DFSLineInput{FS: fsys, Path: "d.csv"}, 2, 3)
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(rec)) {
				t.Errorf("%s over a file holding %q: error %v does not name the record", name, rec, err)
			}
		}
	}
}
