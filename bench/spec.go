package main

import "encoding/json"

// This file is the single source of truth for what the benchmark reports:
// workload names, metric names, units, directions and bounds. `bench
// -manifest` prints it as BENCHMARK.json, and TestManifest keeps the
// committed file equal to it.

// metricSpec names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

type workloadSpec struct {
	Name string
	Why  string
}

const (
	lower  = "lower"
	higher = "higher"
)

var workloadSpecs = []workloadSpec{
	{"batch-anti", "Compute on anticorrelated 40000x5: a sixth of the rows are skyline and most CPU is in skyline/window, so a kernel change shows here"},
	{"batch-indep", "Compute on independent 150000x3: tiny skyline, time is PPD/bitstring job, codec, grid and glue; a kernel change must not show"},
	{"serve-query", "skylined over HTTP, 2 clients, sessions of 4 queries (8 small jobs): Service, obs, admission, JSON and per-job fixed cost"},
	{"serve-churn", "durable maintained 200000x4 dataset, 2 clients posting 64-delta batches beside polls: maintain + wal (fsync always) + JSON, no jobs"},
}

// The bounds are three times the run-to-run spread measured on the 2-vCPU
// shared sandbox (README.md, "Noise"), capped at the contract's 0.25.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"throughput_ops_s", "ops/s", higher, 0.25},
	{"latency_p50_ms", "ms", lower, 0.25},
	{"rss_mb", "MB", lower, 0.15},
}

// perLayerSpecs lists what the traced run reports, layer by layer. The ones
// marked exact count work and repeat bit-for-bit at a fixed seed.
var perLayerSpecs = []metricSpec{
	{Name: "datagen.readcsv_ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "tuple.encode_ns_per_tuple", Unit: "ns/tuple", Better: lower},
	{Name: "tuple.decode_ns_per_tuple", Unit: "ns/tuple", Better: lower},
	{Name: "grid.locate_ns_per_tuple", Unit: "ns/tuple", Better: lower},
	{Name: "core.bitstring_job_ms", Unit: "ms", Better: lower},
	{Name: "core.pruned_cell_ratio", Unit: "ratio", Better: higher}, // exact
	{Name: "window.insert_ns_per_tuple", Unit: "ns/tuple", Better: lower},
	{Name: "window.filterby_ms", Unit: "ms", Better: lower},
	{Name: "window.tests_per_tuple", Unit: "count", Better: lower}, // exact
	{Name: "core.gpmrs_ms", Unit: "ms", Better: lower},
	{Name: "core.dominance_tests_per_op", Unit: "count", Better: lower},   // exact
	{Name: "core.shuffle_bytes_per_op", Unit: "B", Better: lower},         // exact
	{Name: "core.shuffle_replication", Unit: "ratio", Better: lower},      // exact
	{Name: "core.reducer_partcmp_vs_model", Unit: "ratio", Better: lower}, // exact
	{Name: "mrskyline.glue_ms", Unit: "ms", Better: lower},
	{Name: "mrskyline.constrained_scan_ns_per_row", Unit: "ns/row", Better: lower},
	{Name: "obs.service_overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "mapreduce.empty_job_us", Unit: "us", Better: lower},
	{Name: "mapreduce.shuffle_mb_s", Unit: "MB/s", Better: higher},
	{Name: "mapreduce.tupleinput_ns_per_tuple", Unit: "ns/tuple", Better: lower},
	{Name: "cluster.noop_task_us", Unit: "us", Better: lower},
	{Name: "spill.write_mb_s", Unit: "MB/s", Better: higher},
	{Name: "spill.merge_mb_s", Unit: "MB/s", Better: higher},
	{Name: "spill.peak_resident_mb", Unit: "MB", Better: lower}, // exact
	{Name: "spill.job_slowdown_ratio", Unit: "ratio", Better: lower},
	{Name: "rpcexec.job_slowdown_ratio", Unit: "ratio", Better: lower},
	{Name: "maintain.seed_ms", Unit: "ms", Better: lower},
	{Name: "maintain.apply_us_per_delta", Unit: "us", Better: lower},
	{Name: "maintain.snapshot_ns", Unit: "ns", Better: lower},
	{Name: "maintain.cell_rebuilds_per_batch", Unit: "count", Better: lower}, // exact
	{Name: "maintain.tests_per_delta", Unit: "count", Better: lower},         // exact
	{Name: "wal.apply_overhead_us_per_batch", Unit: "us", Better: lower},
	{Name: "wal.bytes_per_delta", Unit: "B", Better: lower}, // exact
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: lower},
	{Name: "wal.recover_ms", Unit: "ms", Better: lower},
	{Name: "skylined.skyline_dataset_ms", Unit: "ms", Better: lower},
	{Name: "skylined.constrained_catalog_ms", Unit: "ms", Better: lower},
	{Name: "skylined.subspace_ms", Unit: "ms", Better: lower},
	{Name: "skylined.skyline_inline_ms", Unit: "ms", Better: lower},
	{Name: "skylined.deltas_post_ms", Unit: "ms", Better: lower},
	{Name: "skylined.skyline_changed_ms", Unit: "ms", Better: lower},
	{Name: "skylined.poll_unchanged_us", Unit: "us", Better: lower},
	{Name: "skylined.http_overhead_ms", Unit: "ms", Better: lower},
	{Name: "skylined.response_kb_per_op", Unit: "KB", Better: lower},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: higher},
	{Name: "op.latency_p90_ms", Unit: "ms", Better: lower}, // the traced round's tail; reported, not gated (README.md)
}

// exactLayerMetrics are the per-layer metrics that count work instead of
// timing it; two traced runs at one seed must print identical values.
var exactLayerMetrics = []string{
	"core.pruned_cell_ratio", "window.tests_per_tuple",
	"core.dominance_tests_per_op", "core.shuffle_bytes_per_op",
	"core.shuffle_replication", "core.reducer_partcmp_vs_model",
	"spill.peak_resident_mb", "maintain.cell_rebuilds_per_batch",
	"maintain.tests_per_delta", "wal.bytes_per_delta",
}

// runSeconds is how long one driver run measures: the rounds of its passes
// add up to it.
const runSeconds = 21

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

// manifestJSON renders BENCHMARK.json.
func manifestJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadSpecs {
		doc.Workloads = append(doc.Workloads, wl(w))
	}
	for _, m := range endToEndSpecs {
		doc.EndToEnd = append(doc.EndToEnd, e2e(m))
	}
	for _, m := range perLayerSpecs {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
