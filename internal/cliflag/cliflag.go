// Package cliflag holds what the four commands (skybench, skyreport,
// skyline, skylined) share about their flags: whether a flag was passed
// explicitly, and the value checks for the fault, spill, worker and scale
// knobs as a front end receives them.
package cliflag

import (
	"flag"
	"fmt"

	"mrskyline/internal/spill"
)

// Set reports whether the named flag was passed explicitly on the command
// line (as opposed to holding its default).
func Set(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// ValidateFaultConfig checks the fault-injection knobs: rate must lie in
// [0, 1], and a seed is only meaningful when a rate enables the fault
// plan. seedSet reports whether the user set the seed explicitly (a zero
// seed means "use the data seed", so presence cannot be inferred from the
// value).
func ValidateFaultConfig(rate float64, seedSet bool) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("fault rate %v outside [0, 1]", rate)
	}
	if seedSet && rate == 0 {
		return fmt.Errorf("fault seed set but fault rate is 0 (set a rate in (0, 1] to enable fault injection)")
	}
	return nil
}

// ValidateSpillConfig checks the external-memory shuffle knobs. budgetSet
// and dirSet report whether the user passed the flags explicitly (the zero
// budget means "all in RAM", so presence cannot be inferred from the
// value); the flag-presence rules are CLI concerns and live here, while
// the budget/dir pairing rule is the shared spill.ValidateSetup every
// front end enforces.
func ValidateSpillConfig(budget int64, dir string, budgetSet, dirSet bool) error {
	if budgetSet && budget <= 0 {
		return fmt.Errorf("spill budget must be positive, got %d", budget)
	}
	if dirSet && dir == "" {
		return fmt.Errorf("spill dir set but empty")
	}
	return spill.ValidateSetup(budget, dir)
}

// ValidateWorkers checks a worker-process count.
func ValidateWorkers(workers int) error {
	if workers < 1 {
		return fmt.Errorf("worker count must be >= 1, got %d", workers)
	}
	return nil
}

// ValidateScale checks a cardinality scale factor: experiments.Setup.Scale
// is a fraction of the paper's cardinalities, 0 < scale ≤ 1. The
// comparison is written so NaN fails it.
func ValidateScale(scale float64) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("scale %v outside (0, 1]", scale)
	}
	return nil
}
