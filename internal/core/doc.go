// Package core implements the paper's contribution: grid-partitioning-based
// skyline computation in MapReduce.
//
//   - Job 1, PPD selection and bitstring generation (Sections 3.2–3.3):
//     mappers emit one local occupancy bitstring per candidate
//     partitions-per-dimension value; the single reducer ORs them per
//     candidate and picks the PPD whose achieved tuples-per-partition is
//     closest to the independent-distribution prediction of Equation 3;
//     the driver prunes its dominated partitions (Equation 2). A fixed PPD
//     is the one candidate, which makes the job Algorithms 1–2.
//   - The skyline job of MR-GPMRS (Section 5, Algorithms 7–9): mappers
//     compute per-partition local skylines gated by the bitstring and
//     eliminate cross-partition false positives locally, then send each
//     bucket's local skylines to its reducer as one record; the buckets are
//     the independent partition groups merged down to the reducer count
//     (Section 5.4.1), formed once by the driver. Reducers finish their
//     buckets independently and in parallel, emitting each replicated
//     partition only from its designated responsible bucket (Section 5.4.2).
//   - MR-GPSRS (Section 4, Algorithms 3–6) is that job with one bucket,
//     sent to one reducer, holding and outputting every surviving
//     partition: Algorithm 3's single key, on which Algorithm 9 is
//     Algorithm 6. The driver decides which rule forms the buckets.
//
// # Configuration and state
//
// Static job configuration (grid bounds and PPD, and the skyline job's
// buckets) is a small serializable spec per job — the moral equivalent of
// Hadoop's JobConf — from which the driver and every rpcexec worker build
// the same task functions (kinds.go); the reducer count is the job's. The
// data-dependent global bitstring travels through the engine's distributed
// cache, exactly as the paper prescribes, and the mappers read it there.
// Beyond it, a job's tasks in one process share only the window pool
// skyFuncs makes per job.
//
// One deliberate deviation: the paper sends an explicit "designation
// notification" alongside mapper output to tell reducers which of them
// outputs a replicated partition (Section 5.4.2). Here the driver forms
// the groups, merges them and designates the outputs once, and the
// designation travels in the job's spec, so no task re-derives it and it
// never crosses the shuffle; the outcome (exactly one reducer outputs each
// partition) is identical and the shuffle carries less data.
package core
