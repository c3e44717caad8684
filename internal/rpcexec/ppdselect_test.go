package rpcexec

import (
	"bytes"
	"slices"
	"testing"

	"mrskyline/internal/cluster"
	"mrskyline/internal/core"
	"mrskyline/internal/datagen"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/tuple"
)

// TestChoosePPDOverWorkers: the Section 3.3 job's dead-candidate rule lives
// in each map attempt, so on the leased driver — over goroutine workers,
// and over worker processes that rebuild the job from its KindPPDSelect
// spec — it must give what the in-process engine gives: PPD, pruned
// bitstring bytes, NonEmpty, the map output records and the shuffle volume.
// Sorted rows make the rule fire in some splits and not in others. PPD 3
// is the fixed-PPD job 1, the same kind over a one-candidate spec.
func TestChoosePPDOverWorkers(t *testing.T) {
	const workers, mappers = 3, 5
	cl, err := cluster.Uniform(workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := mapreduce.NewEngine(cl)
	for name, exec := range map[string]mapreduce.Executor{
		"leased":  inprocExec(t, workers),
		"process": newProcExec(t, Config{Workers: workers}),
	} {
		for _, d := range []int{2, 5} {
			data := datagen.Generate(datagen.Independent, 5000, d, 7)
			sorted := data.Clone()
			slices.SortFunc(sorted, func(a, b tuple.Tuple) int { return slices.Compare(a, b) })
			for layout, rows := range map[string]tuple.List{"random": data, "sorted": sorted} {
				for _, ppd := range []int{0, 3} {
					input := mapreduce.TupleInput(rows)
					want, err := core.ChoosePPDAndBitstring(&core.Config{Engine: eng, NumMappers: mappers, PPD: ppd}, d, len(rows), input, false)
					if err != nil {
						t.Fatal(err)
					}
					got, err := core.ChoosePPDAndBitstring(&core.Config{Engine: exec, NumMappers: mappers, PPD: ppd}, d, len(rows), input, false)
					if err != nil {
						t.Fatalf("%s d=%d %s ppd=%d: %v", name, d, layout, ppd, err)
					}
					if got.PPD != want.PPD || got.AutoPPD != want.AutoPPD || got.NonEmpty != want.NonEmpty || !bytes.Equal(got.Bitstring.Encode(), want.Bitstring.Encode()) {
						t.Errorf("%s d=%d %s ppd=%d: PPD %d, %d non-empty; in-process PPD %d, %d non-empty (or AutoPPD or the bitstrings differ)",
							name, d, layout, ppd, got.PPD, got.NonEmpty, want.PPD, want.NonEmpty)
					}
					if ppd != 0 && got.PPD != ppd {
						t.Errorf("%s d=%d %s: fixed PPD %d ran at %d", name, d, layout, ppd, got.PPD)
					}
					for _, c := range []string{mapreduce.CounterMapOutputRecords, mapreduce.CounterShuffleBytes} {
						if g, w := got.Job.Counters.Get(c), want.Job.Counters.Get(c); g != w {
							t.Errorf("%s d=%d %s ppd=%d: counter %s = %d, in-process %d", name, d, layout, ppd, c, g, w)
						}
					}
				}
			}
		}
	}
}
