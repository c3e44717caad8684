// Package core implements the paper's contribution: grid-partitioning-based
// skyline computation in MapReduce.
//
//   - Job 1, PPD selection and bitstring generation (Sections 3.2–3.3):
//     mappers emit one local occupancy bitstring per candidate
//     partitions-per-dimension value; the single reducer ORs them per
//     candidate, picks the PPD whose achieved tuples-per-partition is
//     closest to the independent-distribution prediction of Equation 3, and
//     prunes its dominated partitions (Equation 2). A fixed PPD is the one
//     candidate, which makes the job Algorithms 1–2.
//   - MR-GPSRS (Section 4, Algorithms 3–6): mappers compute per-partition
//     local skylines gated by the bitstring and eliminate cross-partition
//     false positives locally; a single reducer merges per-partition
//     windows and repeats the elimination globally.
//   - MR-GPMRS (Section 5, Algorithms 7–9): mappers additionally generate
//     independent partition groups from the bitstring, merge them down to
//     the reducer count (Section 5.4.1), and route each group's local
//     skylines to its reducer; reducers finish their groups independently
//     and in parallel, emitting each replicated partition only from its
//     designated responsible group (Section 5.4.2).
//
// # Configuration and state
//
// Static job configuration (dimensionality, PPD, reducer count, kernel,
// merge strategy) is captured in task closures — the moral equivalent of
// Hadoop's JobConf. The data-dependent global bitstring travels through the
// engine's distributed cache, exactly as the paper prescribes. Tasks keep
// no other shared state.
//
// One deliberate deviation: the paper sends an explicit "designation
// notification" alongside mapper output to tell reducers which of them
// outputs a replicated partition (Section 5.4.2). Because group generation,
// merging and designation are pure deterministic functions of the global
// bitstring and the reducer count, every task here recomputes them and the
// notification is redundant; the outcome (exactly one reducer outputs each
// partition) is identical and the shuffle carries less data.
package core
