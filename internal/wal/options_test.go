package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mrskyline/internal/frame"
)

func TestParseSyncMode(t *testing.T) {
	for in, want := range map[string]SyncMode{
		"always": SyncAlways, "ALWAYS": SyncAlways,
		"batch": SyncBatch, "interval": SyncInterval,
	} {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncMode("sometimes"); err == nil || !strings.Contains(err.Error(), "sync mode") {
		t.Fatalf("ParseSyncMode accepted an unknown mode: %v", err)
	}
}

func TestSyncModeString(t *testing.T) {
	for mode, want := range map[SyncMode]string{
		SyncAlways: "always", SyncBatch: "batch", SyncInterval: "interval", SyncMode(7): "SyncMode(7)",
	} {
		if got := mode.String(); got != want {
			t.Fatalf("SyncMode(%d).String() = %q, want %q", int(mode), got, want)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Sync: SyncMode(9)},
		{SyncEvery: -time.Second},
		{SegmentBytes: -1},
		{SegmentBytes: 512},
	}
	for i, o := range bad {
		if _, err := Create(filepath.Join(t.TempDir(), "d"), seedRows(3), testCfg, nil, o); err == nil {
			t.Fatalf("Create accepted invalid options %d: %+v", i, o)
		}
	}
}

func TestExists(t *testing.T) {
	if Exists(filepath.Join(t.TempDir(), "missing")) {
		t.Fatal("Exists(true) for a nonexistent directory")
	}
	dir := t.TempDir()
	if Exists(dir) {
		t.Fatal("Exists(true) for an empty directory")
	}
	// Unrelated files don't count as durable state.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if Exists(dir) {
		t.Fatal("Exists(true) for a directory with only unrelated files")
	}
	d, err := Create(dir, seedRows(3), testCfg, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if !Exists(dir) {
		t.Fatal("Exists(false) for a created durable directory")
	}
	if got := d.Dir(); got != dir {
		t.Fatalf("Dir() = %q, want %q", got, dir)
	}
}

func TestLogErrorTypes(t *testing.T) {
	te := &tornError{Frame: frame.CorruptError{Off: 10}, Path: "wal-5.log", Lost: 4}
	if !strings.Contains(te.Error(), "wal-5.log") || !strings.Contains(te.Error(), "offset 10") {
		t.Fatalf("tornError.Error() = %q, want path and offset", te.Error())
	}
	var fc *frame.CorruptError
	if !errors.As(error(te), &fc) || fc.Off != 10 {
		t.Fatalf("tornError does not unwrap to the frame layer's report: %v", fc)
	}
	fe := &fatalError{err: os.ErrInvalid}
	if !errors.Is(fe, os.ErrInvalid) {
		t.Fatal("fatalError does not unwrap to its cause")
	}
	if fe.Error() != os.ErrInvalid.Error() {
		t.Fatalf("fatalError.Error() = %q", fe.Error())
	}
}

// TestFailedHandleIsSticky: once the log fails, every later Apply,
// Checkpoint and the final Close checkpoint refuse with the original
// error instead of logging against unknown state.
func TestFailedHandleIsSticky(t *testing.T) {
	d, err := Create(filepath.Join(t.TempDir(), "d"), seedRows(3), testCfg, nil, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	d.mu.Lock()
	d.failed = boom
	d.mu.Unlock()
	if _, err := d.Apply(mkBatches(7, 1, 3)[0]); !errors.Is(err, boom) {
		t.Fatalf("Apply after failure = %v, want the sticky error", err)
	}
	if err := d.Checkpoint(); !errors.Is(err, boom) {
		t.Fatalf("Checkpoint after failure = %v, want the sticky error", err)
	}
	d.Abandon()
}

// TestManualCheckpoint: explicit checkpoints work without churn — the
// no-new-records case skips the roll and simply republishes the state.
func TestManualCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "d")
	d, err := Create(dir, seedRows(3), testCfg, []byte(`{"k":1}`), Options{Sync: SyncBatch, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Meta()) != `{"k":1}` {
		t.Fatalf("Meta() = %q", d.Meta())
	}
	for _, b := range mkBatches(8, 5, 3) {
		if _, err := d.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Idempotent: nothing new to log, so no segment roll — still succeeds.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close = %v, want ErrClosed", err)
	}
	r, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if string(r.Meta()) != `{"k":1}` {
		t.Fatalf("recovered Meta() = %q", r.Meta())
	}
	if rs := r.Recovery(); rs.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records after a clean checkpointed close", rs.ReplayedRecords)
	}
}
