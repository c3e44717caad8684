package core_test

import (
	"bytes"
	"testing"

	"mrskyline/internal/cluster"
	"mrskyline/internal/core"
	"mrskyline/internal/datagen"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/spill"
	"mrskyline/internal/tuple"
)

// TestSpilledSkylineBoundedByBudget runs MR-GPSRS and MR-GPMRS with the
// shuffle resident and again through Engine.Spill under a budget far below
// the dataset, with more mappers than the merge fan-in so every spilled
// reduce builds a multi-round merge tree. The skylines must be
// byte-identical, and the spilled path's peak residency must be set by the
// budget and slot count — not by the dataset, which the second, 4× larger
// cardinality shows.
func TestSpilledSkylineBoundedByBudget(t *testing.T) {
	const (
		budget = 4096
		slots  = 2
		dim    = 3
	)
	cards := []int{4000}
	if !testing.Short() {
		cards = append(cards, 16000)
	}
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			var peaks, datasets []int64
			for _, card := range cards {
				data := datagen.Generate(datagen.Independent, card, dim, 2)
				cl, err := cluster.Uniform(slots, 1)
				if err != nil {
					t.Fatal(err)
				}
				eng := mapreduce.NewEngine(cl)
				cfg := core.Config{Engine: eng, NumMappers: 4 * slots, NumReducers: slots}

				want, _, err := a.run(cfg, data)
				if err != nil {
					t.Fatalf("card %d resident: %v", card, err)
				}
				stats := &spill.Stats{}
				eng.Spill = &spill.Config{Dir: t.TempDir(), Budget: budget, FanIn: 2, Stats: stats}
				got, _, err := a.run(cfg, data)
				if err != nil {
					t.Fatalf("card %d spilled: %v", card, err)
				}
				if !bytes.Equal(tuple.EncodeList(got), tuple.EncodeList(want)) {
					t.Fatalf("card %d: spilled skyline differs from resident (%d vs %d tuples)", card, len(got), len(want))
				}
				if stats.RunsWritten.Load() == 0 || stats.MergeRounds.Load() == 0 {
					t.Errorf("card %d: runs written %d, merge rounds %d; want both > 0 with %d mappers at fan-in 2",
						card, stats.RunsWritten.Load(), stats.MergeRounds.Load(), 4*slots)
				}
				peak, dataset := stats.PeakResident(), int64(len(tuple.EncodeList(data)))
				t.Logf("card %d: dataset %d B, peak resident %d B, %d runs, %d merge rounds",
					card, dataset, peak, stats.RunsWritten.Load(), stats.MergeRounds.Load())
				if peak <= 0 || peak > dataset {
					t.Errorf("card %d: peak resident %d not in (0, dataset %d]", card, peak, dataset)
				}
				peaks, datasets = append(peaks, peak), append(datasets, dataset)
			}
			if len(peaks) == 2 {
				if peaks[1] > 2*peaks[0] {
					t.Errorf("peak resident grew with cardinality: %d B at card %d, %d B at card %d", peaks[0], cards[0], peaks[1], cards[1])
				}
				if peaks[1] > datasets[1]/4 {
					t.Errorf("peak resident %d B at card %d is not far below the %d B dataset", peaks[1], cards[1], datasets[1])
				}
			}
		})
	}
}
