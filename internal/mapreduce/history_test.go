package mapreduce_test

import (
	"errors"
	"strings"
	"testing"

	"mrskyline/internal/cluster"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
)

func TestHistoryRecordsAllAttempts(t *testing.T) {
	e := newEngine(t, 3, 1)
	e.FaultInjector = func(phase mapreduce.Phase, taskID, attempt int) error {
		if phase == mapreduce.PhaseMap && taskID == 0 && attempt == 1 {
			return errors.New("flaky map")
		}
		return nil
	}
	res, err := e.Run(wordCountJob([]string{"a b", "c d"}, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	recs := res.History.Records()
	// 2 map tasks (one retried) + 2 reduce tasks = 5 attempts.
	if len(recs) != 5 {
		t.Fatalf("history has %d records, want 5: %+v", len(recs), recs)
	}
	failed := res.History.Failed()
	if len(failed) != 1 || failed[0].Phase != mapreduce.PhaseMap || failed[0].TaskID != 0 || failed[0].Attempt != 1 {
		t.Fatalf("failed = %+v", failed)
	}
	if !strings.Contains(failed[0].Err, "flaky map") {
		t.Errorf("failure message = %q", failed[0].Err)
	}
	// Records are sorted: maps before reduces, attempts ascending.
	for i := 1; i < len(recs); i++ {
		a, b := recs[i-1], recs[i]
		if a.Phase > b.Phase {
			t.Fatal("records not sorted by phase")
		}
		if a.Phase == b.Phase && a.TaskID == b.TaskID && a.Attempt >= b.Attempt {
			t.Fatal("attempts not ascending")
		}
	}
	// Successful records carry their node and a duration.
	for _, r := range recs {
		if r.Err == "" && r.Node == "" {
			t.Errorf("successful record missing node: %+v", r)
		}
	}
}

func TestHistoryNilSafe(t *testing.T) {
	var h *mapreduce.History
	if h.Records() != nil || h.Failed() != nil {
		t.Error("nil history not empty")
	}
}

// faultyTimelineRun executes one word-count job under a seeded FaultPlan
// with stragglers and speculation, returning the history and the tracer
// holding the job's virtual-clock spans.
func faultyTimelineRun(t *testing.T, seed int64) (*mapreduce.Result, *obs.Tracer) {
	t.Helper()
	e := newEngine(t, 4, 2)
	e.Faults = &mapreduce.FaultPlan{
		Seed:          seed,
		CrashRate:     0.15,
		StragglerRate: 0.5,
		Speculative:   &mapreduce.SpeculativeConfig{},
	}
	tr := obs.New()
	e.SetTrace(tr)
	job := wordCountJob([]string{"a b c d", "b c d e", "c d e f", "d e f g"}, 4, 2)
	job.MaxAttempts = 4
	res, err := e.Run(job)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res, tr
}

// TestHistoryTimelineSlotsNeverOverlap checks the schedule invariant: two
// attempts placed on the same (node, slot) must occupy disjoint time
// windows, across many fault schedules.
func TestHistoryTimelineSlotsNeverOverlap(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		res, _ := faultyTimelineRun(t, seed)
		// Records() sorts by phase/task/attempt, so re-bucket by slot and
		// verify windows pairwise (attempt counts are tiny).
		type slotKey struct {
			node string
			slot int
		}
		bySlot := make(map[slotKey][]mapreduce.TaskRecord)
		for _, r := range res.History.Records() {
			if r.Node == "" {
				continue // attempt never placed (e.g. injector veto)
			}
			k := slotKey{r.Node, r.Slot}
			for _, prev := range bySlot[k] {
				pEnd, rEnd := prev.Start+prev.Duration, r.Start+r.Duration
				if r.Start < pEnd && prev.Start < rEnd {
					t.Fatalf("seed %d: %s/s%d: overlapping attempts [%v,%v) and [%v,%v)",
						seed, r.Node, r.Slot, prev.Start, pEnd, r.Start, rEnd)
				}
			}
			bySlot[k] = append(bySlot[k], r)
		}
	}
}

// TestHistoryTimelineAttemptsNestInJobSpan checks the trace invariant:
// every virtual task-attempt span lies inside the job span the tracer
// recorded on the driver track.
func TestHistoryTimelineAttemptsNestInJobSpan(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		_, tr := faultyTimelineRun(t, seed)
		var job *obs.Span
		spans := tr.Spans()
		for i := range spans {
			if spans[i].Cat == obs.CatJob {
				if job != nil {
					t.Fatalf("seed %d: more than one job span", seed)
				}
				job = &spans[i]
			}
		}
		if job == nil {
			t.Fatalf("seed %d: no job span recorded", seed)
		}
		tasks := 0
		for _, s := range spans {
			if s.Cat != obs.CatTask {
				continue
			}
			tasks++
			if s.Start < job.Start || s.End > job.End {
				t.Fatalf("seed %d: task span %s [%v,%v) outside job span [%v,%v)",
					seed, s.Name, s.Start, s.End, job.Start, job.End)
			}
		}
		if tasks < 6 {
			t.Fatalf("seed %d: only %d task spans, want ≥ 6 (4 mappers + 2 reducers)", seed, tasks)
		}
	}
}

// TestHistoryTimelineSpeculativeLosersKilled forces speculative races on
// a 5x-slow node and checks the loser invariants: every race's losing
// attempt appears in the history as killed — Killed set, an explanatory
// Err — and killed attempts never count as failures.
func TestHistoryTimelineSpeculativeLosersKilled(t *testing.T) {
	c, err := cluster.New([]cluster.Node{
		{Name: "fast0", Slots: 2, Speed: 1},
		{Name: "fast1", Slots: 2, Speed: 1},
		{Name: "slow", Slots: 2, Speed: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := mapreduce.NewEngine(c)
	eng.Faults = &mapreduce.FaultPlan{
		Seed:        3,
		Speculative: &mapreduce.SpeculativeConfig{},
	}
	input := []string{"a b", "c d", "e f", "g h", "i j", "k l", "m n", "o p", "q r", "s t"}
	res, err := eng.Run(wordCountJob(input, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if won := res.Counters.Get(mapreduce.CounterSpeculativeWon); won == 0 {
		t.Fatal("no speculative win; the 5x-slow node should lose at least one race")
	}
	killedOriginals := 0
	for _, r := range res.History.Records() {
		if !r.Killed {
			continue
		}
		if r.Err == "" {
			t.Fatalf("killed attempt %+v has no Err", r)
		}
		if !r.Speculative && strings.Contains(r.Err, "speculative") {
			killedOriginals++
		}
	}
	if killedOriginals == 0 {
		t.Fatalf("speculative wins recorded but no killed original in history: %+v",
			res.History.Records())
	}
	for _, r := range res.History.Failed() {
		if r.Killed {
			t.Fatalf("killed attempt counted as failure: %+v", r)
		}
	}
}
