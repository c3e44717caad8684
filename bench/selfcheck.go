package main

import (
	"fmt"
	"slices"
)

// selfcheck is how the bounds in spec.go are verified: it makes N full runs
// of unchanged code at seeds seed..seed+N-1, the way the driver does, and
// prints for every workload and metric the minimum, median and maximum, the
// range and the interquartile spread as shares of the median, and the bound.
// It fails when a spread exceeds its bound or when the median of the second
// half of the runs is worse than that of the first half by more than the
// bound (setup_s is held to the second rule only, as by the driver).
func (h *harness) selfcheck(workloads []string) (bool, error) {
	n := h.o.selfcheck
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	ok := true
	for i := 0; i < n; i++ {
		results, err := h.run(workloads, h.o.seed+int64(i))
		if err != nil {
			return false, err
		}
		for _, r := range results {
			if values[r.workload] == nil {
				values[r.workload] = map[string][]float64{}
			}
			for name, v := range r.metrics {
				values[r.workload][name] = append(values[r.workload][name], v)
			}
			if r.failed > 0 {
				ok = false
				fmt.Printf("run %d: %s: %d of %d operations failed: %v\n", i+1, r.workload, r.failed, r.attempted, r.errors)
			}
		}
		fmt.Printf("run %d of %d done\n", i+1, n)
	}
	specs := endToEndSpecs
	if h.o.trace {
		specs = perLayerSpecs
	}
	fmt.Printf("%-12s %-38s %12s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "min", "median", "max", "range", "iqr", "bound", "halves")
	for _, w := range workloads {
		for _, m := range specs {
			xs := values[w][m.Name]
			if len(xs) == 0 {
				continue
			}
			med := median(xs)
			lo, hi := slices.Min(xs), slices.Max(xs)
			rng := (hi - lo) / med
			iqr := quartileSpread(xs)
			drift := worseBy(median(xs[:len(xs)/2]), median(xs[len(xs)/2:]), m.Better)
			verdict := "ok"
			if m.Bound > 0 && len(xs) >= 2 {
				switch {
				case drift > m.Bound:
					verdict = "HALVES DISAGREE"
				case iqr > m.Bound && m.Name != "setup_s":
					verdict = "TOO NOISY"
				}
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Printf("%-12s %-38s %12.6g %12.6g %12.6g %7.1f%% %7.1f%% %5.0f%%  %+.1f%% %s\n",
				w, m.Name, lo, med, hi, rng*100, iqr*100, m.Bound*100, drift*100, verdict)
		}
	}
	return ok, nil
}
