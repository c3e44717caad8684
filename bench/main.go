// Command bench is the repository's benchmark: four workloads, four
// end-to-end metrics each, and a traced run that walks the layers from
// outside. See README.md in this directory; BENCHMARK.json at the repository
// root is generated from spec.go with -manifest.
//
// The driver runs it through run.sh as
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"mrskyline/internal/rpcexec"
)

func main() {
	// The rpcexec layer walk re-executes this binary as its workers.
	rpcexec.WorkerMain()

	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of every input generator")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "seconds one run measures per workload: the rounds of its passes add up to it")
	trace := flag.Int("trace", 0, "1: traced run — per-layer metrics and bench/out/trace-<workload>.json; 0: end-to-end metrics")
	flag.IntVar(&o.passes, "passes", 3, "passes per run; each is a fresh process with its own set-up, and each timing metric reports the best pass")
	flag.Float64Var(&o.warmup, "warmup", 1, "unmeasured seconds before each round")
	flag.IntVar(&o.selfcheck, "selfcheck", 0, "run N full runs at seeds seed..seed+N-1 and compare their halves against the bounds")
	flag.BoolVar(&o.tiny, "tiny", false, "tiny inputs (the smoke test's scale; numbers mean nothing)")
	flag.StringVar(&o.repo, "repo", "", "repository root (default: found from the working directory)")
	flag.StringVar(&o.build, "build", "", "directory for the daemon binary and scratch files (default <repo>/.bench_build)")
	flag.StringVar(&o.out, "out", "", "directory for trace files (default <repo>/bench/out)")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	child := flag.String("child", "", "internal: run one pass described by this JSON and print its result")
	flag.Parse()
	o.trace = *trace != 0

	switch {
	case *manifest:
		b, err := manifestJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
	case *child != "":
		var cfg passConfig
		if err := json.Unmarshal([]byte(*child), &cfg); err != nil {
			fatal(err)
		}
		if err := childMain(cfg); err != nil {
			fatal(err)
		}
	default:
		ok, err := parentMain(o)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

type options struct {
	workload        string
	seed            int64
	seconds, warmup float64
	passes          int
	selfcheck       int
	trace, tiny     bool
	repo, build     string
	out             string
}

// onSignal runs cleanup and exits when SIGINT or SIGTERM arrives; the
// returned function uninstalls the handler.
func onSignal(cleanup func()) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-ch:
			cleanup()
			os.Exit(130)
		case <-done:
		}
	}()
	return func() { signal.Stop(ch); close(done) }
}

// findRepo returns the directory holding the mrskyline module: the working
// directory or its parent (when run from bench/).
func findRepo() (string, error) {
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module mrskyline\n") {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("repository root not found: run from the root or from bench/, or pass -repo")
}

// harness is one invocation's fixed state.
type harness struct {
	o        options
	self     string // this binary, re-executed for every pass
	skylined string
	tmp      string // removed on exit
	npass    int    // passes started, for scratch directory names
	groups   pidSet // process groups to kill on exit or interrupt
}

func parentMain(o options) (ok bool, err error) {
	workloads := workloadNames()
	if o.workload != "all" {
		if !slices.Contains(workloads, o.workload) {
			return false, fmt.Errorf("unknown workload %q (want all or one of %v)", o.workload, workloads)
		}
		workloads = []string{o.workload}
	}
	if o.passes < 1 || o.seconds <= 0 || o.warmup < 0 {
		return false, errors.New("-passes must be ≥ 1, -seconds > 0, -warmup ≥ 0")
	}
	if o.repo == "" {
		if o.repo, err = findRepo(); err != nil {
			return false, err
		}
	}
	if o.build == "" {
		o.build = filepath.Join(o.repo, ".bench_build")
	}
	if o.out == "" {
		o.out = filepath.Join(o.repo, "bench", "out")
	}
	h := &harness{o: o}
	cleanup := func() {
		h.groups.killAll()
		if h.tmp != "" {
			os.RemoveAll(h.tmp)
		}
	}
	defer onSignal(cleanup)()
	defer cleanup()
	if h.self, err = os.Executable(); err != nil {
		return false, err
	}
	if h.skylined, err = buildDaemon(o.repo, filepath.Join(o.build, "bin"), &h.groups); err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Join(o.build, "tmp"), 0o755); err != nil {
		return false, err
	}
	if h.tmp, err = os.MkdirTemp(filepath.Join(o.build, "tmp"), "run-"); err != nil {
		return false, err
	}

	if o.selfcheck > 0 {
		return h.selfcheck(workloads)
	}
	results, err := h.run(workloads, o.seed)
	if err != nil {
		return false, err
	}
	return report(results, o.workload == "all"), nil
}

// result is one workload's aggregated run.
type result struct {
	workload          string
	metrics           map[string]float64
	specs             []metricSpec
	attempted, failed int
	samples           int // latencies behind the percentiles
	passes            int
	notes             []string // one line per pass
	errors            []string
	traceOut          string
}

// run measures every workload once at the given seed. With several
// workloads the passes interleave — pass 1 of each, then pass 2 of each —
// so that every workload samples the machine over the whole run.
func (h *harness) run(workloads []string, seed int64) ([]result, error) {
	passes, round := h.o.passes, h.o.seconds/float64(h.o.passes)
	if h.o.trace {
		// One pass: a third of the time for the alternating traced and
		// untraced slices, the rest is the layer walk's.
		passes, round = 1, h.o.seconds/3
	}
	// The driver gives a run 180 s; a run that needs more has hung.
	deadline := time.Now().Add(time.Duration(len(workloads)) * 170 * time.Second)
	got := make(map[string][]*passResult)
	for p := 0; p < passes; p++ {
		for _, name := range workloads {
			h.npass++
			cfg := passConfig{
				Workload: name, Seed: seed, Warmup: h.o.warmup, Round: round,
				Trace: h.o.trace, Tiny: h.o.tiny,
				Tmp:      filepath.Join(h.tmp, fmt.Sprintf("pass-%d", h.npass)),
				Skylined: h.skylined, OutDir: h.o.out,
			}
			res, err := h.runPass(cfg, time.Until(deadline))
			if err != nil {
				return nil, err
			}
			got[name] = append(got[name], res)
		}
	}
	results := make([]result, len(workloads))
	for i, name := range workloads {
		if h.o.trace {
			results[i] = layerResult(name, got[name][0])
		} else {
			results[i] = aggregate(name, got[name])
		}
	}
	return results, nil
}

// aggregate turns a workload's passes into its end-to-end metrics. Every
// pass is measured on its own, and each timing metric reports the best
// pass's value — the highest throughput, the lowest median latency, the
// lowest median set-up time — because contention on a shared host only
// ever slows a pass: a run is as good as its quietest pass, and one quiet
// pass in the run is enough. Resident memory has no such direction and is
// the median over every pass's samples. Every pass's 90th percentile is
// printed but is no metric: a few seconds of a neighbour's load move it by
// a fifth. Failures count from every pass.
func aggregate(name string, passes []*passResult) result {
	r := result{workload: name, specs: endToEndSpecs, metrics: map[string]float64{}, passes: len(passes)}
	best := func(metric string, v float64, better string) {
		if old, ok := r.metrics[metric]; !ok || worseBy(v, old, better) > 0 {
			r.metrics[metric] = v
		}
	}
	var rss []float64
	for i, p := range passes {
		r.attempted += p.Ops + p.Failed
		r.failed += p.Failed
		r.errors = append(r.errors, p.Errors...)
		rss = append(rss, p.RssMB...)
		if p.Ops == 0 || p.RoundS <= 0 {
			continue // every operation failed; the failures are reported
		}
		rate, p50, p90, setup := float64(p.Ops)/p.RoundS, percentile(p.LatMs, 50), percentile(p.LatMs, 90), median(p.SetupS)
		r.notes = append(r.notes, fmt.Sprintf("pass %d: %d ops in %.2f s, %.4g ops/s, p50 %.4g ms, p90 %.4g ms, set-up %.4g s",
			i+1, p.Ops, p.RoundS, rate, p50, p90, setup))
		best("throughput_ops_s", rate, higher)
		best("latency_p50_ms", p50, lower)
		best("setup_s", setup, lower)
		r.samples = max(r.samples, len(p.LatMs))
	}
	r.metrics["rss_mb"] = median(rss)
	return r
}

func layerResult(name string, p *passResult) result {
	return result{
		workload: name, specs: perLayerSpecs, metrics: p.Layer,
		attempted: p.Ops + p.Failed, failed: p.Failed, samples: len(p.LatMs),
		passes: 1, errors: p.Errors, traceOut: p.TraceOut,
	}
}

// complete reports whether every metric the result owes is present and
// finite.
func (r result) complete() bool {
	for _, m := range r.specs {
		if v, ok := r.metrics[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// report prints every metric by name with its unit, then — as the last
// line — the JSON object the driver reads. It returns false when an
// operation failed or a metric is missing.
func report(results []result, prefix bool) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		fmt.Printf("%s: %d passes, %d latency samples in the longest, ops_attempted %d, ops_failed %d\n",
			r.workload, r.passes, r.samples, r.attempted, r.failed)
		for _, n := range r.notes {
			fmt.Printf("  %s\n", n)
		}
		for _, m := range r.specs {
			v, ok := r.metrics[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Printf("  %-40s MISSING\n", m.Name)
				continue
			}
			fmt.Printf("  %-40s %14.6g %s\n", m.Name, v, m.Unit)
			key := m.Name
			if prefix {
				key = r.workload + "/" + m.Name
			}
			last.Metrics[key] = value{v, m.Unit}
		}
		for _, e := range r.errors {
			fmt.Printf("  failed: %s\n", e)
		}
		if r.traceOut != "" {
			fmt.Printf("  trace: %s\n", r.traceOut)
		}
		last.Attempted += r.attempted
		last.Failed += r.failed
		if r.failed > 0 || r.attempted == 0 || !r.complete() {
			last.Correct = false
		}
	}
	b, _ := json.Marshal(last) // strings, ints and finite floats only
	fmt.Println(string(b))
	return last.Correct
}
