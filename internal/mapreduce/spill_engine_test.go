package mapreduce_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mrskyline/internal/mapreduce"
	"mrskyline/internal/spill"
)

// indexJob pins down the full shuffle contract: every word maps to the
// list of its occurrence positions, so the reduce output encodes not just
// grouping but the exact per-key value order (mapper index, then emission
// order) — any reordering on the spilled path changes the output bytes.
func indexJob(lines []string, mappers, reducers int) *mapreduce.Job {
	recs := make([]mapreduce.Record, len(lines))
	for i, line := range lines {
		recs[i] = mapreduce.Record{Key: []byte(fmt.Sprintf("L%04d", i)), Value: []byte(line)}
	}
	return &mapreduce.Job{
		Name:        "index",
		Input:       mapreduce.MemoryInput{Records: recs},
		NumMappers:  mappers,
		NumReducers: reducers,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFuncs{
				MapFn: func(ctx *mapreduce.TaskContext, rec mapreduce.Record, emit mapreduce.Emitter) error {
					for pos, w := range strings.Fields(string(rec.Value)) {
						emit([]byte(w), []byte(fmt.Sprintf("%s:%d", rec.Key, pos)))
					}
					return nil
				},
			}
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFuncs{
				ReduceFn: func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emitter) error {
					parts := make([]string, len(values))
					for i, v := range values {
						parts[i] = string(v)
					}
					emit(key, []byte(strings.Join(parts, "|")))
					return nil
				},
			}
		},
	}
}

// randomLines builds a corpus from a small vocabulary so keys collide
// across lines and mappers.
func randomLines(rng *rand.Rand, lines int) []string {
	vocab := []string{"ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen", "ibis", "jay"}
	out := make([]string, lines)
	for i := range out {
		n := 1 + rng.Intn(8)
		words := make([]string, n)
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		out[i] = strings.Join(words, " ")
	}
	return out
}

func recordsIdentical(a, b []mapreduce.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// TestSpilledMatchesInMemory is the spilled-versus-resident differential:
// across 30 seeds of random corpora and task layouts, a job run under a
// tiny spill budget with fan-in 2 (forcing multiple runs per segment and
// multi-round merge trees) must produce byte-identical output and the same
// job counters as the all-in-RAM engine — on the wall-clock driver, on the
// virtual-clock driver under a fault-free plan, and under a seeded plan of
// crashes, stragglers, speculation and a node death that takes committed
// map output (run files included) with it. On the virtual clock spilling
// must not perturb the schedule either: the Histories are identical.
func TestSpilledMatchesInMemory(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	drivers := []struct {
		name string
		plan func(seed int64) *mapreduce.FaultPlan
	}{
		{"wall", func(int64) *mapreduce.FaultPlan { return nil }},
		{"virtual", func(seed int64) *mapreduce.FaultPlan { return &mapreduce.FaultPlan{Seed: seed} }},
		{"virtual+faults", func(seed int64) *mapreduce.FaultPlan {
			// No CorruptRate: the plan corrupts fetches of resident segments,
			// and a spilled segment is never fetched — its runs carry their
			// own checksums (TestSpilledCorruptSourceRunRepaired).
			return &mapreduce.FaultPlan{
				Seed:          seed,
				CrashRate:     0.15,
				StragglerRate: 0.3,
				Speculative:   &mapreduce.SpeculativeConfig{},
				NodeFailure:   &mapreduce.NodeFailure{Node: "node1", At: 150 * time.Millisecond},
			}
		}},
	}
	totalRuns, totalRounds := int64(0), int64(0)
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		lines := randomLines(rng, 20+rng.Intn(60))
		mappers := 1 + rng.Intn(5)
		reducers := 1 + rng.Intn(4)
		e := newEngine(t, 2+rng.Intn(3), 1+rng.Intn(2))
		job := func() *mapreduce.Job {
			j := indexJob(lines, mappers, reducers)
			j.MaxAttempts = 8 // out of reach of the seeded crash schedule
			return j
		}

		var wallOutput []mapreduce.Record
		for _, d := range drivers {
			e.Faults = d.plan(int64(seed))
			resMem, err := e.Run(job())
			if err != nil {
				t.Fatalf("seed %d %s: in-memory run: %v", seed, d.name, err)
			}
			if wallOutput == nil {
				wallOutput = resMem.Output
			}

			stats := &spill.Stats{}
			e.Spill = &spill.Config{Dir: t.TempDir(), Budget: 256, FanIn: 2, Stats: stats}
			resSp, err := e.Run(job())
			if err != nil {
				t.Fatalf("seed %d %s: spilled run: %v", seed, d.name, err)
			}
			e.Spill = nil

			if !recordsIdentical(resMem.Output, resSp.Output) || !recordsIdentical(wallOutput, resSp.Output) {
				t.Errorf("seed %d %s (mappers=%d reducers=%d): spilled output differs from in-memory output",
					seed, d.name, mappers, reducers)
			}
			if m, s := resMem.Counters.Snapshot(), resSp.Counters.Snapshot(); !reflect.DeepEqual(m, s) {
				t.Errorf("seed %d %s: job counters diverge:\nin-memory %+v\nspilled   %+v", seed, d.name, m, s)
			}
			if e.Faults != nil && !reflect.DeepEqual(resMem.History.Records(), resSp.History.Records()) {
				t.Errorf("seed %d %s: spilling changed the virtual schedule", seed, d.name)
			}
			if stats.RunsWritten.Load() == 0 {
				t.Errorf("seed %d %s: spilled run wrote no run files", seed, d.name)
			}
			totalRuns += stats.RunsWritten.Load()
			totalRounds += stats.MergeRounds.Load()
		}
	}
	if totalRounds == 0 {
		t.Errorf("no merge rounds across %d seeds: the 256-byte budget with fan-in 2 should force multi-round merges", seeds)
	}
	t.Logf("across %d seeds: %d runs written, %d merge rounds", seeds, totalRuns, totalRounds)
}

// TestSpilledEmptyReducers covers reducers whose input is empty (no runs at
// all) and jobs whose whole shuffle fits one record.
func TestSpilledEmptyReducers(t *testing.T) {
	e := newEngine(t, 2, 1)
	e.Spill = &spill.Config{Dir: t.TempDir(), Budget: 64, FanIn: 2, Stats: &spill.Stats{}}
	res, err := e.Run(indexJob([]string{"only"}, 2, 4))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Output) != 1 || string(res.Output[0].Key) != "only" {
		t.Fatalf("output = %v, want the single word", res.Output)
	}
}

// TestSpilledJobCleansSpillDir: the per-job spill subdirectory is removed
// when the job resolves.
func TestSpilledJobCleansSpillDir(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t, 2, 2)
	e.Spill = &spill.Config{Dir: dir, Budget: 128, Stats: &spill.Stats{}}
	if _, err := e.Run(indexJob(randomLines(rand.New(rand.NewSource(9)), 30), 3, 2)); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("spill dir not cleaned after job: %d entries remain", len(ents))
	}
}

// TestSpilledCorruptSourceRunRepaired: a map-output run corrupted on disk
// before the reduce phase reads it must be detected by its checksum and
// repaired by re-executing the producing map task — the job succeeds with
// the exact fault-free output and counts the corruption.
func TestSpilledCorruptSourceRunRepaired(t *testing.T) {
	lines := randomLines(rand.New(rand.NewSource(11)), 40)

	clean := newEngine(t, 2, 2)
	want, err := clean.Run(indexJob(lines, 3, 2))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	e := newEngine(t, 2, 2)
	e.Spill = &spill.Config{Dir: dir, Budget: 256, FanIn: 2, Stats: &spill.Stats{}}
	var once sync.Once
	corrupted := false
	e.FaultInjector = func(phase mapreduce.Phase, taskID, attempt int) error {
		if phase != mapreduce.PhaseReduce {
			return nil
		}
		// The reduce phase starting means every map run is on disk; flip
		// one byte in the middle of the first map-output run file.
		once.Do(func() {
			matches, err := filepath.Glob(filepath.Join(dir, "job-*", "m*.run"))
			if err != nil || len(matches) == 0 {
				t.Errorf("no map run files found to corrupt: %v (err %v)", matches, err)
				return
			}
			raw, err := os.ReadFile(matches[0])
			if err != nil {
				t.Errorf("reading run to corrupt: %v", err)
				return
			}
			raw[len(raw)/2] ^= 0xFF
			if err := os.WriteFile(matches[0], raw, 0o600); err != nil {
				t.Errorf("writing corrupted run: %v", err)
				return
			}
			corrupted = true
		})
		return nil
	}
	res, err := e.Run(indexJob(lines, 3, 2))
	if err != nil {
		t.Fatalf("corrupted run did not recover: %v", err)
	}
	if !corrupted {
		t.Fatal("injector never corrupted a run file")
	}
	if !recordsIdentical(res.Output, want.Output) {
		t.Error("recovered output differs from the fault-free output")
	}
	if got := res.Counters.Get(mapreduce.CounterShuffleCorruptions); got < 1 {
		t.Errorf("CounterShuffleCorruptions = %d, want >= 1", got)
	}
}

// TestSpilledNodeDeathDropsRunFiles: on the virtual clock a node death
// uncommits the map tasks whose output the node held, and with spilling on
// that output is run files — they must be deleted with it, so that when
// the reduce phase starts every map task has exactly one attempt's files
// on disk, and the job still produces the fault-free output.
func TestSpilledNodeDeathDropsRunFiles(t *testing.T) {
	lines := randomLines(rand.New(rand.NewSource(13)), 48)
	want, err := newEngine(t, 3, 2).Run(indexJob(lines, 12, 2))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	e := newEngine(t, 3, 2)
	e.Spill = &spill.Config{Dir: dir, Budget: 64, FanIn: 2}
	// 12 maps on 6 slots run in two ~100ms waves: at 150ms node0 has
	// committed wave-1 output and is running wave-2 attempts.
	e.Faults = &mapreduce.FaultPlan{Seed: 9, NodeFailure: &mapreduce.NodeFailure{Node: "node0", At: 150 * time.Millisecond}}
	var once sync.Once
	attemptsOnDisk := map[string]map[string]bool{} // map task → attempts with files
	e.FaultInjector = func(phase mapreduce.Phase, _, _ int) error {
		if phase == mapreduce.PhaseReduce {
			once.Do(func() {
				matches, _ := filepath.Glob(filepath.Join(dir, "job-*", "m*-a*-r*.run"))
				for _, path := range matches {
					parts := strings.SplitN(filepath.Base(path), "-", 3) // m<task>, a<attempt>, rest
					if attemptsOnDisk[parts[0]] == nil {
						attemptsOnDisk[parts[0]] = map[string]bool{}
					}
					attemptsOnDisk[parts[0]][parts[1]] = true
				}
			})
		}
		return nil
	}
	res, err := e.Run(indexJob(lines, 12, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !recordsIdentical(res.Output, want.Output) {
		t.Error("output after node death differs from the fault-free output")
	}
	if len(attemptsOnDisk) != 12 {
		t.Fatalf("run files of %d map tasks on disk at reduce start, want 12: %v", len(attemptsOnDisk), attemptsOnDisk)
	}
	reExecuted := 0
	for task, attempts := range attemptsOnDisk {
		if len(attempts) != 1 {
			t.Errorf("map task %s has run files of attempts %v on disk; the uncommitted attempt's were not deleted", task, attempts)
		}
		if !attempts["a1"] {
			reExecuted++
		}
	}
	if reExecuted == 0 {
		t.Error("no map task was re-executed; the node death exercised nothing")
	}
}
