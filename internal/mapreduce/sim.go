package mapreduce

import (
	"runtime"
	"time"
)

// SimConfig enables simulated-time accounting. When an Engine carries a
// SimConfig, every task's execution is measured while the number of
// concurrently running task bodies is bounded by MeasureParallelism (so
// measurements stay contention-free), and the job's Result gains a
// SimulatedTime: the wall-clock the job would have taken on the simulated
// cluster — list-scheduling makespan of the map tasks over the cluster's
// slots, a per-reducer shuffle transfer at the configured bandwidth, the
// reduce makespan, and fixed per-job and per-task overheads.
//
// This is how the repository reproduces the paper's cluster results on a
// laptop: the paper's headline effect — the single reducer of
// MR-GPSRS/MR-BNL/MR-Angle serializing the global merge while MR-GPMRS
// spreads it over r reducers — is a makespan property of the schedule, not
// of summed CPU work, and summed CPU work is all a single host can observe
// directly.
type SimConfig struct {
	// TaskStartup is the fixed cost of launching one task attempt
	// (Hadoop 1.x JVM spin-up). Default 1s.
	TaskStartup time.Duration
	// JobSetup is the fixed per-job overhead (job submission, split
	// computation, cache distribution). Default 5s.
	JobSetup time.Duration
	// NetBandwidth is the per-link bandwidth in bytes/second used for the
	// shuffle transfer; each reducer pulls its input over one such link.
	// Default 12.5 MB/s — the 100 Mbit/s LAN of the paper's cluster.
	NetBandwidth int64
	// MeasureParallelism bounds how many task bodies execute concurrently
	// while their durations are measured. 0 (the default) resolves to
	// min(GOMAXPROCS, cluster slots): each in-flight task is a single
	// CPU-bound goroutine on its own core, so individual measurements stay
	// contention-free in practice and a sweep finishes in roughly 1/P of
	// the serial wall clock. 1 serializes task bodies — the strict
	// isolation mode this repository's publication runs (cmd/skyreport)
	// use, where per-task durations must not carry even scheduler noise
	// from sibling tasks. Values above GOMAXPROCS trade measurement
	// fidelity for throughput and are not recommended.
	//
	// The makespan computation is a pure function of the measured
	// durations, so any two runs that observe the same durations produce
	// the same SimulatedTime regardless of this setting.
	MeasureParallelism int
}

// measureSlots resolves the measurement-semaphore capacity against the
// cluster's slot count.
func (c *SimConfig) measureSlots(clusterSlots int) int {
	p := c.MeasureParallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
		if clusterSlots < p {
			p = clusterSlots
		}
	}
	if p < 1 {
		p = 1
	}
	return p
}

// withDefaults fills zero fields.
func (c SimConfig) withDefaults() SimConfig {
	if c.TaskStartup == 0 {
		c.TaskStartup = time.Second
	}
	if c.JobSetup == 0 {
		c.JobSetup = 5 * time.Second
	}
	if c.NetBandwidth == 0 {
		c.NetBandwidth = 12_500_000
	}
	return c
}

// makespan computes the finish time of greedy list scheduling: tasks are
// assigned in order to the slot that would finish them earliest, with each
// slot's relative speed scaling task durations (a 0.76-speed slot runs a
// 1s task in ~1.3s). This mirrors how a MapReduce scheduler drains a task
// queue over a fixed, possibly heterogeneous slot pool.
func makespan(durations []time.Duration, speeds []float64) time.Duration {
	if len(durations) == 0 {
		return 0
	}
	if len(speeds) == 0 {
		speeds = []float64{1}
	}
	free := make([]time.Duration, len(speeds))
	var end time.Duration
	for _, d := range durations {
		// Pick the slot with the earliest finish time for this task.
		best := 0
		bestFinish := time.Duration(0)
		for i, f := range free {
			scaled := time.Duration(float64(d) / speedOf(speeds, i))
			finish := f + scaled
			if i == 0 || finish < bestFinish {
				best, bestFinish = i, finish
			}
		}
		free[best] = bestFinish
		if bestFinish > end {
			end = bestFinish
		}
	}
	return end
}

// speedOf reads a slot speed, defaulting zeros to 1.
func speedOf(speeds []float64, i int) float64 {
	if speeds[i] <= 0 {
		return 1
	}
	return speeds[i]
}

// simulate computes a job's simulated wall-clock from measured task
// durations, per-reducer shuffle volumes and the cluster's slot speeds.
func (c SimConfig) simulate(mapDurs, reduceDurs []time.Duration, perReducerBytes []int64, speeds []float64) time.Duration {
	c = c.withDefaults()
	withStartup := func(ds []time.Duration) []time.Duration {
		out := make([]time.Duration, len(ds))
		for i, d := range ds {
			out[i] = d + c.TaskStartup
		}
		return out
	}
	total := c.JobSetup
	total += makespan(withStartup(mapDurs), speeds)
	total += c.shuffleTime(perReducerBytes)
	total += makespan(withStartup(reduceDurs), speeds)
	return total
}

// shuffleTime is the simulated shuffle-transfer duration: each reducer
// pulls its input over one NetBandwidth link; the slowest pull gates the
// reduce phase. Callers pass a defaulted config.
func (c SimConfig) shuffleTime(perReducerBytes []int64) time.Duration {
	var shuffle time.Duration
	for _, b := range perReducerBytes {
		t := time.Duration(float64(b) / float64(c.NetBandwidth) * float64(time.Second))
		if t > shuffle {
			shuffle = t
		}
	}
	return shuffle
}
