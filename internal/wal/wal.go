// Package wal makes maintained skylines durable: a segmented, checksummed
// write-ahead log plus snapshot checkpoints, with crash recovery back to
// byte-identical state.
//
// PR 8's internal/maintain keeps the grid, per-cell windows and the
// pruning bitstring resident — state that a process crash silently loses.
// This package brings the durability discipline MapReduce gets from
// materialized intermediates (and BSP from checkpointed supersteps) to the
// always-on maintenance layer:
//
//   - Every delta batch is appended to the log — an internal/frame chunk
//     and the running frame.Hash of the file so far, the pieces spill's
//     SKYRUN1 runs are laid out on — BEFORE it is applied to the resident
//     state, under a configurable fsync policy (always / batch / interval).
//   - A background checkpointer serializes the resident state at its
//     current generation G (rows in global arrival order, which reproduces
//     every cell window and the sliding-window eviction order exactly) and
//     truncates log segments whose records are all ≤ G.
//   - Recovery loads the newest intact snapshot, replays the remaining
//     records in generation order, truncates a torn tail, and yields a
//     skyline byte-identical to a fresh rebuild of the logged batches. A
//     batch is either wholly recovered or wholly discarded — one log
//     record per batch means a torn write can never half-apply one.
//
// Layout of a durable directory:
//
//	snap-<gen 16-hex>.ckpt   checkpoint: config + rows at generation gen
//	wal-<gen 16-hex>.log     segment whose first record has that generation
//
// Corruption rules: a snapshot that fails its checksum is skipped in
// favor of an older one; a checksum break in the final segment is a torn
// tail and is truncated; a break in any earlier segment (or a generation
// gap) is hard corruption and Recover returns an error rather than serve
// wrong data.
package wal

import (
	"fmt"
	"strings"
	"time"

	"mrskyline/internal/obs"
)

// SyncMode selects when appended records are fsynced.
type SyncMode int

const (
	// SyncAlways fsyncs before every batch acknowledgement: an
	// acknowledged batch survives any crash. The default.
	SyncAlways SyncMode = iota
	// SyncBatch acknowledges after the buffered write and lets a
	// background syncer fsync continuously, coalescing bursts into few
	// fsyncs. Loss window on a crash: the batches behind the in-flight
	// fsync (typically single-digit milliseconds).
	SyncBatch
	// SyncInterval fsyncs on a timer (Options.SyncEvery). Loss window on
	// a crash: up to one interval of acknowledged batches.
	SyncInterval
)

// String implements fmt.Stringer for SyncMode.
func (s SyncMode) String() string {
	switch s {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncInterval:
		return "interval"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(s))
	}
}

// ParseSyncMode parses "always", "batch" or "interval".
func ParseSyncMode(s string) (SyncMode, error) {
	switch strings.ToLower(s) {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "interval":
		return SyncInterval, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync mode %q (want always|batch|interval)", s)
	}
}

// Options shapes a Durable log. The zero value is ready to use: fsync
// before every acknowledgement, 1 MiB segments, a checkpoint every 256
// batches.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncMode
	// SyncEvery is the SyncInterval period (default 50ms; ignored
	// otherwise).
	SyncEvery time.Duration
	// SegmentBytes is the roll threshold: a segment that has reached it is
	// sealed and a fresh one started (default 1 MiB, minimum 4 KiB).
	SegmentBytes int64
	// CheckpointEvery is the number of applied batches between background
	// checkpoints (default 256). Negative disables automatic checkpoints;
	// Close still writes a final one.
	CheckpointEvery int
	// Metrics, when non-nil, receives the wal.* series: append bytes and
	// records, fsync count and latency histogram, segments created and
	// removed, checkpoints, replayed records and recovery wall time.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SyncEvery == 0 {
		o.SyncEvery = 50 * time.Millisecond
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 256
	}
	return o
}

func (o Options) validate() error {
	switch o.Sync {
	case SyncAlways, SyncBatch, SyncInterval:
	default:
		return fmt.Errorf("wal: unknown SyncMode %d", int(o.Sync))
	}
	if o.SyncEvery < 0 {
		return fmt.Errorf("wal: SyncEvery must be ≥ 0, got %v", o.SyncEvery)
	}
	if o.SegmentBytes < 0 {
		return fmt.Errorf("wal: SegmentBytes must be ≥ 0, got %d", o.SegmentBytes)
	}
	if o.SegmentBytes > 0 && o.SegmentBytes < 4096 {
		return fmt.Errorf("wal: SegmentBytes %d below the 4096-byte minimum", o.SegmentBytes)
	}
	return nil
}
