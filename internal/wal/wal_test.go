package wal

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mrskyline/internal/frame"
	"mrskyline/internal/maintain"
	"mrskyline/internal/tuple"
)

// mkBatches builds a deterministic delta stream: mostly inserts with a
// sprinkling of deletes against rows inserted earlier. The same seed
// always yields the same stream, so a recovered instance can be compared
// against a fresh rebuild of any prefix.
func mkBatches(seed int64, n, dim int) [][]maintain.Delta {
	rng := rand.New(rand.NewSource(seed))
	var pool []tuple.Tuple
	out := make([][]maintain.Delta, n)
	for i := range out {
		batch := make([]maintain.Delta, 1+rng.Intn(4))
		for j := range batch {
			if len(pool) > 4 && rng.Float64() < 0.2 {
				k := rng.Intn(len(pool))
				batch[j] = maintain.Delta{Op: maintain.OpDelete, Row: pool[k].Clone()}
				pool = append(pool[:k], pool[k+1:]...)
				continue
			}
			row := make(tuple.Tuple, dim)
			for d := range row {
				row[d] = rng.Float64()
			}
			pool = append(pool, row)
			batch[j] = maintain.Delta{Op: maintain.OpInsert, Row: row.Clone()}
		}
		out[i] = batch
	}
	return out
}

// seedRows builds the deterministic seed dataset shared by a durable
// instance and its rebuild reference.
func seedRows(dim int) tuple.List {
	rng := rand.New(rand.NewSource(42))
	rows := make(tuple.List, 16)
	for i := range rows {
		rows[i] = make(tuple.Tuple, dim)
		for d := range rows[i] {
			rows[i][d] = rng.Float64()
		}
	}
	return rows
}

var testCfg = maintain.Config{Dim: 3, PPD: 4}

// rebuild replays the first k batches on a fresh maintain instance — the
// ground truth a recovered Durable must match byte for byte.
func rebuild(t *testing.T, k int, batches [][]maintain.Delta, cfg maintain.Config) *maintain.Maintained {
	t.Helper()
	m, err := maintain.New(seedRows(cfg.Dim).Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:k] {
		if _, err := m.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// mustEqualState asserts got reproduces want exactly: generation, skyline
// bytes, resident rows in arrival order.
func mustEqualState(t *testing.T, got, want *maintain.Maintained) {
	t.Helper()
	gs, ws := got.Snapshot(), want.Snapshot()
	if gs.Gen != ws.Gen {
		t.Fatalf("generation = %d, want %d", gs.Gen, ws.Gen)
	}
	if !reflect.DeepEqual(gs.Skyline, ws.Skyline) {
		t.Fatalf("skyline diverged at gen %d:\n got %v\nwant %v", gs.Gen, gs.Skyline, ws.Skyline)
	}
	if g, w := got.ArrivalRows(), want.ArrivalRows(); !reflect.DeepEqual(g, w) {
		t.Fatalf("resident rows diverged: got %d rows, want %d", len(g), len(w))
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, 1, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for gen := uint64(1); gen <= 20; gen++ {
		p := []byte{byte(gen), 0xab, byte(gen * 7)}
		want = append(want, p)
		if err := l.append(gen, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := scanSegment(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("payloads round-trip mismatch: %d vs %d records", len(got), len(want))
	}
}

func TestSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, 1, 64, nil) // minimum is clamped by Options, not here
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 40)
	for gen := uint64(1); gen <= 10; gen++ {
		if err := l.append(gen, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	if len(l.sealed) == 0 {
		t.Fatal("no segments sealed despite tiny segment size")
	}
	segs, err := listDir(dir, "wal-", ".log")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != len(l.sealed)+1 {
		t.Fatalf("%d segment files, want %d sealed + 1 active", len(segs), len(l.sealed))
	}
	// Every record must still be readable, in order, across the roll.
	var n uint64
	for _, sg := range segs {
		payloads, _, err := scanSegment(sg.path)
		if err != nil {
			t.Fatalf("%s: %v", sg.path, err)
		}
		n += uint64(len(payloads))
	}
	if n != 10 {
		t.Fatalf("scanned %d records across segments, want 10", n)
	}
}

func TestScanTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, 1, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for gen := uint64(1); gen <= 5; gen++ {
		if err := l.append(gen, []byte{1, 2, 3, byte(gen)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, 1)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(b) - 1; cut > len(segMagic); cut-- {
		if err := os.WriteFile(path, b[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		payloads, goodOff, err := scanSegment(path)
		if err == nil {
			// A cut exactly on a record boundary is a clean shorter log.
			if goodOff != int64(cut) {
				t.Fatalf("cut at %d: clean scan stopped at %d", cut, goodOff)
			}
			continue
		}
		var te *tornError
		if !errors.As(err, &te) {
			t.Fatalf("cut at %d: error = %v, want tornError", cut, err)
		}
		if goodOff > int64(cut) || len(payloads) > 5 {
			t.Fatalf("cut at %d: goodOff %d past cut, %d payloads", cut, goodOff, len(payloads))
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := snapshotState{
		Gen:       7,
		Dim:       3,
		PPD:       4,
		WindowCap: 9,
		Lo:        tuple.Tuple{0, 0, 0},
		Hi:        tuple.Tuple{1, 2, 3},
		Meta:      []byte(`{"maximize":[true,false,true]}`),
		Rows:      seedRows(3),
	}
	path, err := writeSnapshot(dir, st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, st) {
		t.Fatalf("snapshot round-trip mismatch:\n got %+v\nwant %+v", *got, st)
	}
}

// TestSnapshotCorruptionDetected: a checkpoint whose checksum is right
// but whose fields are not still reads as errSnapCorrupt — the bounds
// checks behind the sum, which no bit flip reaches (TestCorruptionSweep
// has those). Each case edits the payload and re-sums the file.
func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path, err := writeSnapshot(dir, snapshotState{
		Gen: 3, Dim: 2, PPD: 2, Lo: tuple.Tuple{0, 0}, Hi: tuple.Tuple{1, 1},
		Meta: []byte("m"), Rows: tuple.List{{0.5, 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Payload offsets: version, gen, dim, ppd, windowCap are one byte each
	// after the magic; 32 bytes of domain; the meta chunk; the row count.
	const (
		version  = len(snapMagic)
		dim      = version + 2
		metaLen  = version + 5 + 32
		rowCount = metaLen + 2
	)
	body := orig[:len(orig)-frame.SumSize]
	cases := map[string]func(b []byte) []byte{
		"unsupported version":   func(b []byte) []byte { b[version] = snapVersion + 1; return b },
		"zero dimensionality":   func(b []byte) []byte { b[dim] = 0; return b },
		"domain overruns":       func(b []byte) []byte { b[dim] = 100; return b },
		"header value too big":  func(b []byte) []byte { return append(append(b[:dim:dim], 0xff, 0xff, 0xff, 0xff, 0x7f), b[dim+1:]...) },
		"meta overruns":         func(b []byte) []byte { b[metaLen] = 0x7f; return b },
		"row count implausible": func(b []byte) []byte { b[rowCount] = 0x7f; return b },
		"row of another dim":    func(b []byte) []byte { b[rowCount+1] = 1; return b[:len(b)-8] },
		"trailing bytes":        func(b []byte) []byte { return append(b, 0) },
		"header cut short":      func(b []byte) []byte { return b[:version+1] },
	}
	for name, edit := range cases {
		b := edit(append([]byte(nil), body...))
		h := frame.NewHash()
		h.Write(b)
		if err := os.WriteFile(path, frame.AppendSum(b, &h), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, rerr := readSnapshot(path); !errors.Is(rerr, errSnapCorrupt) {
			t.Errorf("%s: error = %v, want errSnapCorrupt", name, rerr)
		}
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSnapshot(path); err != nil {
		t.Fatalf("restored snapshot: %v", err)
	}
}

func TestDurableCloseRecoverIdentity(t *testing.T) {
	for _, mode := range []SyncMode{SyncAlways, SyncBatch, SyncInterval} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			batches := mkBatches(1, 40, 3)
			d, err := Create(dir, seedRows(3).Clone(), testCfg, []byte("meta-blob"), Options{Sync: mode, CheckpointEvery: 16})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				if _, err := d.Apply(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Recover(dir, Options{Sync: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if string(r.Meta()) != "meta-blob" {
				t.Fatalf("meta = %q, want %q", r.Meta(), "meta-blob")
			}
			// Close checkpoints, so a clean restart replays nothing.
			if rs := r.Recovery(); rs.ReplayedRecords != 0 || rs.TornBytes != 0 {
				t.Fatalf("clean restart replayed %d records, %d torn bytes", rs.ReplayedRecords, rs.TornBytes)
			}
			mustEqualState(t, r.Maintained(), rebuild(t, len(batches), batches, testCfg))
		})
	}
}

func TestDurableAbandonRecover(t *testing.T) {
	dir := t.TempDir()
	batches := mkBatches(2, 30, 3)
	d, err := Create(dir, seedRows(3).Clone(), testCfg, nil, Options{Sync: SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := d.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Abandon(); err != nil { // crash: no final checkpoint
		t.Fatal(err)
	}
	r, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rs := r.Recovery(); rs.ReplayedRecords != int64(len(batches)) {
		t.Fatalf("replayed %d records, want %d", rs.ReplayedRecords, len(batches))
	}
	mustEqualState(t, r.Maintained(), rebuild(t, len(batches), batches, testCfg))
}

func TestDurableResumeAfterRecover(t *testing.T) {
	dir := t.TempDir()
	batches := mkBatches(3, 24, 3)
	d, err := Create(dir, seedRows(3).Clone(), testCfg, nil, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:12] {
		if _, err := d.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[12:] {
		if _, err := r.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	mustEqualState(t, r2.Maintained(), rebuild(t, len(batches), batches, testCfg))
}

func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	batches := mkBatches(4, 20, 3)
	d, err := Create(dir, seedRows(3).Clone(), testCfg, nil, Options{Sync: SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := d.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs, err := listDir(dir, "wal-", ".log")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("%d segments after checkpoint, want only the fresh active one", len(segs))
	}
	snaps, err := listDir(dir, "snap-", ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots after checkpoint, want 1", len(snaps))
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rs := r.Recovery(); rs.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records after checkpoint, want 0", rs.ReplayedRecords)
	}
	mustEqualState(t, r.Maintained(), rebuild(t, len(batches), batches, testCfg))
}

func TestDurableSlidingWindow(t *testing.T) {
	cfg := maintain.Config{Dim: 3, PPD: 4, WindowCap: 20}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	var batches [][]maintain.Delta
	for i := 0; i < 60; i++ {
		row := tuple.Tuple{rng.Float64(), rng.Float64(), rng.Float64()}
		batches = append(batches, []maintain.Delta{{Op: maintain.OpInsert, Row: row}})
	}
	d, err := Create(dir, seedRows(3).Clone(), cfg, nil, Options{Sync: SyncAlways, CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := d.Apply(clone(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want, err := maintain.New(seedRows(3).Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := want.Apply(clone(b)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Maintained().WindowCap() != cfg.WindowCap {
		t.Fatalf("recovered WindowCap = %d, want %d", r.Maintained().WindowCap(), cfg.WindowCap)
	}
	mustEqualState(t, r.Maintained(), want)
}

func clone(b []maintain.Delta) []maintain.Delta {
	out := make([]maintain.Delta, len(b))
	for i, d := range b {
		out[i] = maintain.Delta{Op: d.Op, Row: d.Row.Clone()}
	}
	return out
}

func TestRecoverNoState(t *testing.T) {
	if _, err := Recover(t.TempDir(), Options{}); !errors.Is(err, ErrNoState) {
		t.Fatalf("error = %v, want ErrNoState", err)
	}
}

func TestCreateRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, seedRows(3).Clone(), testCfg, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, seedRows(3).Clone(), testCfg, nil, Options{}); err == nil {
		t.Fatal("Create over existing durable state succeeded; it must refuse")
	}
}

func TestApplyAfterCloseRejected(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, seedRows(3).Clone(), testCfg, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(mkBatches(5, 1, 3)[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close = %v, want ErrClosed", err)
	}
	if err := d.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestDurableDifferential churns many seeds through random crash points:
// apply a random prefix, abandon, recover, compare to a rebuild, keep
// applying, close cleanly, recover again and compare to the full rebuild.
func TestDurableDifferential(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		batches := mkBatches(seed, 30, 3)
		cut := 1 + rng.Intn(len(batches)-1)
		mode := []SyncMode{SyncAlways, SyncBatch, SyncInterval}[seed%3]
		o := Options{Sync: mode, CheckpointEvery: 1 + rng.Intn(10), SegmentBytes: 4096}
		dir := t.TempDir()

		d, err := Create(dir, seedRows(3).Clone(), testCfg, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches[:cut] {
			if _, err := d.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		if seed%2 == 0 {
			if err := d.Abandon(); err != nil {
				t.Fatal(err)
			}
		} else if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := Recover(dir, o)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Everything here went through Apply and returned, and no process
		// died: even the async modes have fsynced or still hold the records
		// in the kernel, so the full prefix must recover.
		mustEqualState(t, r.Maintained(), rebuild(t, cut, batches, testCfg))
		for _, b := range batches[cut:] {
			if _, err := r.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		r2, err := Recover(dir, o)
		if err != nil {
			t.Fatalf("seed %d reopen: %v", seed, err)
		}
		mustEqualState(t, r2.Maintained(), rebuild(t, len(batches), batches, testCfg))
		if err := r2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverTornTail simulates a torn final write: garbage appended to
// the active segment must be discarded, everything before it recovered.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	batches := mkBatches(6, 10, 3)
	d, err := Create(dir, seedRows(3).Clone(), testCfg, nil, Options{Sync: SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := d.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	segs, err := listDir(dir, "wal-", ".log")
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1].path
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x17, 0xee, 0x03, 0x41, 0x99}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rs := r.Recovery(); rs.TornBytes == 0 {
		t.Fatal("recovery reported no torn bytes despite appended garbage")
	}
	mustEqualState(t, r.Maintained(), rebuild(t, len(batches), batches, testCfg))
}

// TestRecoverRefusesMidLogCorruption: a flipped bit in a sealed (non-
// final) segment is not a torn tail — recovery must error, not serve a
// state missing acknowledged batches.
func TestRecoverRefusesMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	batches := mkBatches(7, 150, 3)
	d, err := Create(dir, seedRows(3).Clone(), testCfg, nil, Options{Sync: SyncAlways, CheckpointEvery: -1, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := d.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	segs, err := listDir(dir, "wal-", ".log")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need ≥ 2 segments for the test, got %d", len(segs))
	}
	b, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(segs[0].path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, Options{}); err == nil {
		t.Fatal("recovery over corrupt sealed segment succeeded; it must refuse")
	}
}

// TestRecoverFallsBackToOlderSnapshot: when the newest checkpoint is
// corrupt, recovery loads the previous one and replays a longer log.
func TestRecoverFallsBackToOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	batches := mkBatches(8, 20, 3)
	d, err := Create(dir, seedRows(3).Clone(), testCfg, nil, Options{Sync: SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := d.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil { // checkpoints at the final generation
		t.Fatal(err)
	}
	snaps, err := listDir(dir, "snap-", ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	newest := snaps[len(snaps)-1].path
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // break the newest checkpoint's checksum
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// The final checkpoint truncated the log, so with it corrupt the seed
	// snapshot alone cannot rebuild the state — unless the log survives.
	// Re-append the full history by copying in a fresh directory is
	// overkill; instead verify the corrupt-snapshot path on a directory
	// that still has its log: checkpoint only at close, log truncated.
	// Falling back here must fail loudly rather than serve the stale seed.
	_, rerr := Recover(dir, Options{})
	if rerr == nil {
		t.Fatal("recovery served stale state after newest snapshot corruption with a truncated log")
	}
}

// TestRecoverOlderSnapshotWithIntactLog is the successful fallback: the
// newest snapshot is corrupt but the log still holds every record, so
// recovery replays from the older snapshot to the exact same state.
func TestRecoverOlderSnapshotWithIntactLog(t *testing.T) {
	dir := t.TempDir()
	batches := mkBatches(9, 20, 3)
	d, err := Create(dir, seedRows(3).Clone(), testCfg, nil, Options{Sync: SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := d.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	gen := d.Maintained().Generation()
	rows := d.Maintained().ArrivalRows()
	// Hand-write a "newest" checkpoint and corrupt it, keeping the log: the
	// create-time seed snapshot plus the intact log must still win.
	path, err := writeSnapshot(dir, d.snapshotState(gen, rows))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x08
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.Recovery()
	if rs.CorruptSnapshots != 1 {
		t.Fatalf("CorruptSnapshots = %d, want 1", rs.CorruptSnapshots)
	}
	if rs.ReplayedRecords != int64(len(batches)) {
		t.Fatalf("replayed %d records from the fallback snapshot, want %d", rs.ReplayedRecords, len(batches))
	}
	mustEqualState(t, r.Maintained(), rebuild(t, len(batches), batches, testCfg))
}

// TestRecoverOrErrorNeverWrong sweeps random corruptions over a durable
// directory: recovery must either reproduce a prefix of the acknowledged
// history exactly or refuse — never panic, never serve anything else.
func TestRecoverOrErrorNeverWrong(t *testing.T) {
	batches := mkBatches(10, 25, 3)
	build := func(t *testing.T) string {
		dir := t.TempDir()
		d, err := Create(dir, seedRows(3).Clone(), testCfg, nil, Options{Sync: SyncAlways, CheckpointEvery: 10, SegmentBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if _, err := d.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Abandon(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	// Prefix states a successful recovery is allowed to surface.
	valid := make(map[uint64]*maintain.Maintained)
	for k := 0; k <= len(batches); k++ {
		m := rebuild(t, k, batches, testCfg)
		valid[m.Generation()] = m
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		dir := build(t)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		victim := filepath.Join(dir, ents[rng.Intn(len(ents))].Name())
		raw, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) == 0 {
			continue
		}
		if rng.Intn(2) == 0 {
			raw = raw[:rng.Intn(len(raw))] // truncate
		} else {
			raw[rng.Intn(len(raw))] ^= byte(1 << rng.Intn(8)) // flip a bit
		}
		if err := os.WriteFile(victim, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Recover(dir, Options{})
		if err != nil {
			continue // refusing is always allowed
		}
		want, ok := valid[r.Maintained().Generation()]
		if !ok {
			t.Fatalf("trial %d (%s): recovered generation %d is not a valid history prefix", trial, victim, r.Maintained().Generation())
		}
		mustEqualState(t, r.Maintained(), want)
		r.Close()
	}
}
