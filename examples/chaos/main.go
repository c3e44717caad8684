// Chaos: fault tolerance end to end — every task's first attempt is
// crashed, then a seeded fault plan adds stragglers, corrupted shuffle
// fetches and a node death, and the skyline still comes out exactly right.
// Demonstrates the engine's task retry, speculation and checksummed
// shuffle. This example drives the internal engine directly (the public API
// hides these knobs).
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"mrskyline/internal/cluster"
	"mrskyline/internal/core"
	"mrskyline/internal/datagen"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/skyline"
	"mrskyline/internal/tuple"
)

func main() {
	clus, err := cluster.Uniform(5, 2)
	if err != nil {
		log.Fatal(err)
	}
	eng := mapreduce.NewEngine(clus)

	// Crash the first attempt of every single task.
	var crashed atomic.Int64
	eng.FaultInjector = func(phase mapreduce.Phase, taskID, attempt int) error {
		if attempt == 1 {
			crashed.Add(1)
			return fmt.Errorf("chaos: %v task %d attempt %d killed", phase, taskID, attempt)
		}
		return nil
	}

	// Run MR-GPMRS — the PPD job, then the skyline job — while every task
	// crashes once.
	const card, d = 20_000, 3
	data := datagen.Generate(datagen.AntiCorrelated, card, d, 99)
	sky, stats, err := core.GPMRS(core.Config{Engine: eng, NumReducers: 4}, data)
	if err != nil {
		log.Fatal(err)
	}

	// Verify against the sequential oracle.
	want := skyline.Naive(data)
	if !tuple.EqualAsSet(sky, want) {
		log.Fatalf("skyline wrong under chaos: %d vs %d tuples", len(sky), len(want))
	}

	fmt.Printf("crashed %d first attempts — every task retried on another node\n", crashed.Load())
	fmt.Printf("skyline: %d of %d tuples, verified against the sequential oracle\n", len(sky), card)
	fmt.Printf("grid: PPD %d, %d non-empty partitions, %d after pruning, %d groups\n",
		stats.PPD, stats.NonEmpty, stats.Surviving, stats.Groups)

	// Act two: the same computation under a seeded FaultPlan — random
	// crashes (errors and panics), straggler nodes masked by speculative
	// execution, corrupted shuffle fetches caught by checksums, and a whole
	// node dying mid-map-phase. The plan is fully deterministic: rerun with
	// the same seed and the schedule replays bit-for-bit.
	clus2, err := cluster.Uniform(5, 2)
	if err != nil {
		log.Fatal(err)
	}
	eng2 := mapreduce.NewEngine(clus2)
	eng2.Faults = &mapreduce.FaultPlan{
		Seed:          42,
		CrashRate:     0.1,
		StragglerRate: 0.2,
		CorruptRate:   0.2,
		NodeFailure:   &mapreduce.NodeFailure{Node: "node3", At: 150 * time.Millisecond},
		Speculative:   &mapreduce.SpeculativeConfig{},
	}
	sky2, stats2, err := core.GPMRS(core.Config{Engine: eng2, NumReducers: 4}, data)
	if err != nil {
		log.Fatal(err)
	}
	if !tuple.EqualAsSet(sky2, want) {
		log.Fatalf("skyline wrong under fault plan: %d vs %d tuples", len(sky2), len(want))
	}
	fmt.Printf("\nfault plan seed 42: skyline identical under %d task failures, "+
		"%d node failure(s), %d corrupted fetches, %d speculative launches (%d won)\n",
		stats2.TaskFailures, stats2.NodeFailures, stats2.ShuffleCorruptions,
		stats2.SpeculativeLaunched, stats2.SpeculativeWon)
}
