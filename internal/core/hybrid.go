package core

import "mrskyline/internal/tuple"

// DefaultHybridThreshold is the estimated-skyline-workload level above
// which Hybrid switches from the single reducer of MR-GPSRS to the parallel
// reducers of MR-GPMRS.
const DefaultHybridThreshold = 20000

// Hybrid implements the paper's future-work proposal: "a hybrid method can
// be developed by combining MR-GPSRS and MR-GPMRS [that is] able to switch
// between the two algorithms automatically".
//
// The switch uses only information the bitstring phase already produces, so
// it costs nothing extra. The global bitstring gives the occupied-partition
// count ρ before pruning and the surviving count after; with c input tuples
// the average occupancy is c/ρ, so the tuples that survive partition
// pruning — the upper bound of the work the reducer side will see — number
// about surviving·c/ρ. MR-GPMRS's parallel reducers only pay off when this
// workload is large (the paper: "the fraction of skyline tuples in the data
// set needs to be high enough for the extra overhead to be offset"), so
// Hybrid picks MR-GPMRS when the estimate exceeds threshold (and more than
// one independent group exists to parallelize over), MR-GPSRS otherwise.
func Hybrid(cfg Config, data tuple.List) (tuple.List, *Stats, error) {
	return compute(cfg, data, AlgoHybrid, DefaultHybridThreshold)
}

// HybridWithThreshold is Hybrid with an explicit switching threshold, so
// tests can force either side of the switch.
func HybridWithThreshold(cfg Config, data tuple.List, threshold int64) (tuple.List, *Stats, error) {
	return compute(cfg, data, AlgoHybrid, threshold)
}
