package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{5}, 50, 5},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90, 10},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 100, 4},
		{[]float64{10, 20}, 25, 12.5},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestAggregateReportsBestPassAndCountsEveryFailure(t *testing.T) {
	pass := func(ops int, lat, setup float64, failed int) *passResult {
		return &passResult{SetupS: []float64{setup, setup + 2}, Ops: ops, Failed: failed, RoundS: 2,
			LatMs: []float64{lat, lat + 1, lat + 4}, RssMB: []float64{lat}}
	}
	// The fastest pass is not the one with the lowest median latency or
	// set-up: every timing metric picks its own best pass.
	r := aggregate("w", []*passResult{pass(10, 3, 5, 0), pass(4, 9, 1, 2), pass(8, 1, 3, 0), pass(0, 0, 0, 7)})
	if r.passes != 4 || r.attempted != 31 || r.failed != 9 || r.samples != 3 {
		t.Fatalf("passes %d attempted %d failed %d samples %d, want 4, 31, 9, 3", r.passes, r.attempted, r.failed, r.samples)
	}
	want := map[string]float64{"setup_s": 2, "throughput_ops_s": 5, "latency_p50_ms": 2, "rss_mb": 2}
	if len(r.metrics) != len(want) {
		t.Errorf("metrics %v, want exactly %v", r.metrics, want)
	}
	for k, v := range want {
		if math.Abs(r.metrics[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, r.metrics[k], v)
		}
	}
}

// TestQuartileSpread pins the quartiles to Python's
// statistics.quantiles(xs, n=4), which the driver uses.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 13, 14, 19, 16, 18, 17} // quantiles: 11.75, 14.5, 17.25
	if got, want := quartileSpread(xs), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{1, 2}); math.Abs(got-(2.25-0.75)/1.5) > 1e-12 { // Python extrapolates: 0.75, 1.5, 2.25
		t.Errorf("quartileSpread of two = %v", got)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, lower); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 100→110: %v", got)
	}
	if got := worseBy(100, 90, higher); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("higher-is-better 100→90: %v", got)
	}
	if got := worseBy(100, 90, lower); got >= 0 {
		t.Errorf("an improvement reads as worse: %v", got)
	}
}

// sameCounts reports whether two per-layer metric sets agree bit-for-bit on
// every exact-count metric, returning the names that differ.
func sameCounts(a, b map[string]float64, names []string) (diff []string) {
	for _, n := range names {
		av, aok := a[n]
		bv, bok := b[n]
		if aok != bok || math.Float64bits(av) != math.Float64bits(bv) {
			diff = append(diff, n)
		}
	}
	return diff
}

func TestSameCounts(t *testing.T) {
	tenth, fifth := 0.1, 0.2 // variables: constant arithmetic would be exact
	a := map[string]float64{"x": 1.5, "y": 2, "z": tenth + fifth}
	b := map[string]float64{"x": 1.5, "y": 3, "z": 0.3}
	if got := sameCounts(a, b, []string{"x", "y", "z", "absent"}); !reflect.DeepEqual(got, []string{"y", "z"}) {
		t.Errorf("sameCounts = %v, want [y z]: equality is bit-for-bit", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds spec.go to the benchmark contract and the committed
// BENCHMARK.json to spec.go.
func TestManifest(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadSpecs {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEndSpecs {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(perLayerSpecs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range perLayerSpecs {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound != 0 {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	for _, n := range exactLayerMetrics {
		if !seen[n] {
			t.Errorf("exact metric %q is not a per-layer metric", n)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes", len(want))
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
}

// built is the bench binary the smoke tests run, compiled once.
func built(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

type lastLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runBench runs the binary on tiny inputs inside dir and decodes the last
// line it printed.
func runBench(t *testing.T, bin, dir string, args ...string) lastLine {
	t.Helper()
	args = append([]string{"-tiny", "-repo", "..", "-build", filepath.Join(dir, "build"), "-out", filepath.Join(dir, "out")}, args...)
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bench %v: %v\n%s%s", args, err, out, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return last
}

// survivors lists processes whose command line mentions dir, and what is
// left in the harness's scratch directory.
func survivors(t *testing.T, dir string) (procs, files []string) {
	t.Helper()
	ents, _ := os.ReadDir("/proc")
	for _, e := range ents {
		cmdline, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err == nil && bytes.Contains(cmdline, []byte(dir)) {
			procs = append(procs, e.Name()+": "+strings.ReplaceAll(string(cmdline), "\x00", " "))
		}
	}
	left, _ := os.ReadDir(filepath.Join(dir, "build", "tmp"))
	for _, e := range left {
		files = append(files, e.Name())
	}
	return procs, files
}

// TestSmoke runs every workload for one half-second pass on tiny inputs.
func TestSmoke(t *testing.T) {
	bin, dir := built(t), t.TempDir()
	last := runBench(t, bin, dir, "-passes", "1", "-seconds", "0.5", "-warmup", "0.1")
	if !last.Correct || last.Failed != 0 || last.Attempted < len(workloadSpecs) {
		t.Errorf("correct %v, attempted %d, failed %d", last.Correct, last.Attempted, last.Failed)
	}
	for _, w := range workloadSpecs {
		for _, m := range endToEndSpecs {
			got, ok := last.Metrics[w.Name+"/"+m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("%s %s = %+v (present %v), want a positive value in %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
	}
	if len(last.Metrics) != len(workloadSpecs)*len(endToEndSpecs) {
		t.Errorf("%d metrics printed, want %d", len(last.Metrics), len(workloadSpecs)*len(endToEndSpecs))
	}
	if procs, files := survivors(t, dir); len(procs)+len(files) > 0 {
		t.Errorf("left behind processes %v, scratch files %v", procs, files)
	}
}

// TestTracedSmoke makes the traced run twice at one seed: every per-layer
// metric is printed, the trace file is well-formed (the child validates it
// before writing), and the counts repeat bit-for-bit.
func TestTracedSmoke(t *testing.T) {
	bin, dir := built(t), t.TempDir()
	var runs [2]map[string]float64
	for i := range runs {
		last := runBench(t, bin, dir, "-workload", "serve-churn", "-trace", "1", "-seconds", "1.2", "-warmup", "0.1", "-seed", "7")
		if !last.Correct || last.Failed != 0 {
			t.Fatalf("correct %v, failed %d", last.Correct, last.Failed)
		}
		runs[i] = map[string]float64{}
		for _, m := range perLayerSpecs {
			got, ok := last.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
			}
			runs[i][m.Name] = got.Value
		}
		if len(last.Metrics) != len(perLayerSpecs) {
			t.Errorf("%d metrics printed, want %d", len(last.Metrics), len(perLayerSpecs))
		}
	}
	if diff := sameCounts(runs[0], runs[1], exactLayerMetrics); len(diff) > 0 {
		for _, n := range diff {
			t.Errorf("%s did not repeat: %v then %v", n, runs[0][n], runs[1][n])
		}
	}
	if st, err := os.Stat(filepath.Join(dir, "out", "trace-serve-churn.json")); err != nil || st.Size() == 0 {
		t.Errorf("no trace file: %v", err)
	}
	if procs, files := survivors(t, dir); len(procs)+len(files) > 0 {
		t.Errorf("left behind processes %v, scratch files %v", procs, files)
	}
}

// TestInterruptLeavesNothing sends SIGINT while a daemon is serving.
func TestInterruptLeavesNothing(t *testing.T) {
	bin, dir := built(t), t.TempDir()
	cmd := exec.Command(bin, "-tiny", "-repo", "..", "-build", filepath.Join(dir, "build"), "-out", filepath.Join(dir, "out"),
		"-workload", "serve-churn", "-passes", "1", "-seconds", "60")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	deadline := time.Now().Add(60 * time.Second)
	for {
		procs, _ := survivors(t, dir)
		daemon := false
		for _, p := range procs {
			daemon = daemon || strings.Contains(p, "skylined -addr")
		}
		if daemon {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no daemon appeared")
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmd.Process.Signal(syscall.SIGINT)
	if err := cmd.Wait(); err == nil {
		t.Error("an interrupted run exited with code 0")
	}
	time.Sleep(100 * time.Millisecond) // SIGKILLed children need a moment to leave /proc
	if procs, files := survivors(t, dir); len(procs)+len(files) > 0 {
		t.Errorf("left behind processes %v, scratch files %v", procs, files)
	}
}
