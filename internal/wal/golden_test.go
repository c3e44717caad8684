package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mrskyline/internal/maintain"
	"mrskyline/internal/tuple"
)

// The golden durable directory: a three-row seed checkpointed at creation
// (SKYSNAP) and two delta batches logged behind it (SKYWAL1), abandoned as
// a crash would leave it. testdata/golden holds the two files as the
// commit before internal/frame existed wrote them; they are never
// regenerated.
var (
	goldenCfg     = maintain.Config{Dim: 2, PPD: 2, Lo: []float64{0, 0}, Hi: []float64{1, 1}}
	goldenMeta    = []byte(`{"maximize":[false,true]}`)
	goldenSeed    = tuple.List{{0.5, 0.5}, {0.25, 0.75}, {0.75, 0.125}}
	goldenBatches = [][]maintain.Delta{
		{{Op: maintain.OpInsert, Row: tuple.Tuple{0.125, 0.875}}},
		{{Op: maintain.OpDelete, Row: tuple.Tuple{0.5, 0.5}}, {Op: maintain.OpInsert, Row: tuple.Tuple{0.375, 0.375}}},
	}
	goldenFiles = []string{"snap-0000000000000001.ckpt", "wal-0000000000000002.log"}
)

// writeGoldenDir reproduces the golden directory with the current writer.
func writeGoldenDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	d, err := Create(dir, goldenSeed.Clone(), goldenCfg, goldenMeta, Options{Sync: SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range goldenBatches {
		if _, err := d.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestGoldenWALBytes pins SKYWAL1 and SKYSNAP: Create and Apply must
// produce the checked-in files byte for byte, and nothing else.
func TestGoldenWALBytes(t *testing.T) {
	dir := writeGoldenDir(t)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(goldenFiles) {
		t.Errorf("durable directory holds %d files, want %d", len(ents), len(goldenFiles))
	}
	for _, name := range goldenFiles {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed:\n got %x\nwant %x", name, got, want)
		}
	}
}

// TestGoldenWALRecovers is the compatibility half: a directory written by
// the earlier binary recovers to the state a fresh rebuild reaches.
func TestGoldenWALRecovers(t *testing.T) {
	dir := t.TempDir()
	for _, name := range goldenFiles {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := Recover(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if rs := d.Recovery(); rs.ReplayedRecords != 2 || rs.ReplayedDeltas != 3 || rs.TornBytes != 0 || rs.SnapshotRows != 3 {
		t.Errorf("recovery stats = %+v, want 2 records / 3 deltas replayed over a 3-row snapshot, nothing torn", rs)
	}
	if !bytes.Equal(d.Meta(), goldenMeta) {
		t.Errorf("Meta() = %q, want %q", d.Meta(), goldenMeta)
	}
	want, err := maintain.New(goldenSeed.Clone(), goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range goldenBatches {
		if _, err := want.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	mustEqualState(t, d.Maintained(), want)
}
