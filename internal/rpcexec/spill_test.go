package rpcexec

import (
	"context"
	"testing"

	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
)

// TestSpilledProcessMatchesExpected: workers running under a tiny spill
// budget (every segment cut into many runs) must produce exactly the output
// of the in-memory wire across a spread of task layouts.
func TestSpilledProcessMatchesExpected(t *testing.T) {
	shapes := []struct{ keys, records, mappers, reducers int }{
		{6, 90, 4, 3},
		{1, 40, 3, 1},
		{11, 200, 5, 4},
		{4, 1, 1, 3}, // mostly-empty reduces
	}
	pe := newProcExec(t, Config{
		Workers:     2,
		SpillBudget: 256,
		SpillDir:    t.TempDir(),
	})
	for _, s := range shapes {
		res, err := pe.RunContext(context.Background(),
			sumJob("spill", s.keys, s.records, s.mappers, s.reducers, 0, 0))
		if err != nil {
			t.Fatalf("shape %+v: %v", s, err)
		}
		if want := sumJobExpected(s.keys, s.records, s.reducers); !recordsEqual(res.Output, want) {
			t.Errorf("shape %+v output mismatch:\n got %s\nwant %s",
				s, formatRecords(res.Output), formatRecords(want))
		}
		checkAttemptInvariants(t, res)
	}
}

// TestChaosCorruptRefetch: one worker serves a single shuffle Fetch with a
// flipped byte (its stored data stays pristine). The fetcher's checksum
// must catch the damage, refetch, and complete the job with the exact
// fault-free output while surfacing the corruption in the job counters.
// Run on both shuffle paths: in-memory segments and spilled run files.
func TestChaosCorruptRefetch(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"memory", func(t *testing.T) Config { return Config{Workers: 2} }},
		{"spilled", func(t *testing.T) Config {
			return Config{Workers: 2, SpillBudget: 256, SpillDir: t.TempDir()}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.New()
			cfg := tc.cfg(t)
			cfg.Chaos = []string{ChaosCorrupt}
			cfg.Trace = tr
			pe := newProcExec(t, fastTimings(cfg))

			// The 10ms task sleeps spread maps across both workers so
			// reduces depend on remote segments — a Fetch must happen for
			// the corruptor to poison.
			const keys, records, mappers, reducers = 6, 90, 4, 3
			res, err := pe.RunContext(context.Background(),
				sumJob("corrupt", keys, records, mappers, reducers, 10, 10))
			if err != nil {
				t.Fatalf("corrupted fetch did not recover: %v", err)
			}
			if want := sumJobExpected(keys, records, reducers); !recordsEqual(res.Output, want) {
				t.Fatalf("output mismatch after refetch:\n got %s\nwant %s",
					formatRecords(res.Output), formatRecords(want))
			}
			if got := res.Counters.Get(mapreduce.CounterShuffleCorruptions); got < 1 {
				t.Errorf("CounterShuffleCorruptions = %d, want >= 1", got)
			}
			// Corruption is repaired by refetch, not by killing the worker.
			for _, ctr := range tr.Metrics().Snapshot().Counters {
				if ctr.Name == "rpc.worker.deaths" && ctr.Value > 0 {
					t.Errorf("rpc.worker.deaths = %d, want 0 (corrupt serve must not kill anyone)", ctr.Value)
				}
			}
			checkAttemptInvariants(t, res)
		})
	}
}

// TestSpillConfigValidation: the executor rejects unusable spill settings
// at construction.
func TestSpillConfigValidation(t *testing.T) {
	bad := []Config{
		{Workers: 1, SpillBudget: -1},
		{Workers: 1, SpillBudget: 1024},                                       // budget without dir
		{Workers: 1, SpillBudget: 1024, SpillDir: "/no/such/dir/exists/here"}, // dir missing
		{Workers: 1, SpillBudget: 1024, SpillDir: string([]byte{0})},          // unusable dir
	}
	for i, cfg := range bad {
		if pe, err := New(cfg); err == nil {
			pe.Close()
			t.Errorf("case %d: New(%+v) accepted an invalid spill config", i, cfg)
		}
	}
}

// TestSpillDirWithoutBudgetRejected: the shared budget/dir rule
// (spill.ValidateSetup) applies to the process executor too — a spill
// directory with a zero budget is a configuration error, exactly as
// mrskyline.Options and ServiceConfig treat it, instead of the silently
// ignored setting it used to be here.
func TestSpillDirWithoutBudgetRejected(t *testing.T) {
	if pe, err := New(Config{Workers: 1, SpillDir: t.TempDir()}); err == nil {
		pe.Close()
		t.Error("SpillDir with zero SpillBudget accepted")
	}
}
