package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"mrskyline/internal/obs"
)

// passConfig is everything one pass — one fresh child process — needs.
type passConfig struct {
	Workload string
	Seed     int64
	Warmup   float64 // seconds
	Round    float64 // seconds
	Trace    bool
	Tiny     bool
	Tmp      string // pass-private scratch directory; the parent removes it
	Skylined string
	OutDir   string // where a traced pass writes trace-<workload>.json
}

// passResult is what a child prints as one JSON line when its pass is over.
type passResult struct {
	SetupS   []float64 // one entry per timed set-up
	Ops      int       // correct operations in the round
	Failed   int       // operations that errored or failed their oracle
	RoundS   float64   // the round's actual duration
	LatMs    []float64 // latency of every correct operation
	RssMB    []float64 // VmRSS samples of the process under test, 4 Hz
	Errors   []string  // first few failure messages
	Layer    map[string]float64
	TraceOut string
}

// round is what runRound measured.
type round struct {
	ops, failed int
	seconds     float64
	latMs       []float64
	rssMB       []float64
	errs        []string
}

const maxErrors = 5

// runRound drives the workload's clients in a closed loop for d: every
// client sends its next operation only after the previous one completed. An
// operation in flight when d elapses is finished and counted; the round's
// duration is the time until the last client stopped.
func runRound(w workload, d time.Duration, tr *obs.Tracer, sampleRSS bool) round {
	var (
		mu sync.Mutex
		r  round
		wg sync.WaitGroup
	)
	var rss []float64 // owned by the sampler until rssDone is closed
	stopRSS := make(chan struct{})
	rssDone := make(chan struct{})
	go func() {
		defer close(rssDone)
		if !sampleRSS {
			return
		}
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopRSS:
				return
			case <-tick.C:
				if mb, err := rssMB(w.pid()); err == nil {
					rss = append(rss, mb)
				}
			}
		}
	}()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				lat, err := w.op(c, tr)
				mu.Lock()
				if err != nil {
					r.failed++
					if len(r.errs) < maxErrors {
						r.errs = append(r.errs, err.Error())
					}
				} else {
					r.ops++
					r.latMs = append(r.latMs, lat.Seconds()*1e3)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	r.seconds = time.Since(start).Seconds()
	close(stopRSS)
	<-rssDone
	r.rssMB = rss
	return r
}

// childMain runs one pass in this process and prints its passResult.
func childMain(cfg passConfig) error {
	sz := fullSizes
	if cfg.Tiny {
		sz = tinySizes
	}
	w, err := newWorkload(cfg.Workload, env{seed: cfg.Seed, sz: sz, tmp: cfg.Tmp, skylined: cfg.Skylined})
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(w.procs())
	// A signal must not leave a daemon or a datadir behind.
	stopSignals := onSignal(w.teardown)
	defer stopSignals()
	defer w.teardown()

	var res passResult
	for i := 0; i < w.setupReps(); i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	if err := w.prepare(); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	warm := runRound(w, seconds(cfg.Warmup), nil, false)
	var (
		r  round
		tr *obs.Tracer
	)
	if cfg.Trace {
		tr = obs.New()
		res.Layer = map[string]float64{}
		var plain round
		r, plain = tracedRounds(w, seconds(cfg.Round), tr)
		if plain.ops > 0 && r.ops > 0 { // else every operation failed; the failures are reported
			res.Layer["trace.overhead_ratio"] = (float64(r.ops) / r.seconds) / (float64(plain.ops) / plain.seconds)
			// All four slices: a tail needs every sample it can get, and
			// the ratio above shows that the spans cost nothing.
			res.Layer["op.latency_p90_ms"] = percentile(append(plain.latMs, r.latMs...), 90)
		}
	} else {
		r = runRound(w, seconds(cfg.Round), nil, true)
	}
	res.Ops, res.Failed, res.RoundS, res.LatMs, res.RssMB = r.ops, r.failed+warm.failed, r.seconds, r.latMs, r.rssMB
	res.Errors = append(warm.errs, r.errs...)
	if err := w.finish(); err != nil {
		// The end-of-round oracle covers every operation of the pass.
		res.Failed += res.Ops
		res.Ops = 0
		res.Errors = append(res.Errors, "end-of-round oracle: "+err.Error())
	}
	if cfg.Trace {
		in := w.walkInputs()
		w.teardown() // the walk starts its own daemon; free the memory first
		if err := layerWalk(cfg, in, tr, res.Layer); err != nil {
			return fmt.Errorf("layer walk: %w", err)
		}
		if res.TraceOut, err = writeTrace(tr, cfg.OutDir, cfg.Workload); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// tracedRounds splits d into four slices, alternately untraced and traced,
// so that the overhead ratio — traced over untraced throughput — compares
// two numbers measured under the same machine state. It returns the traced
// slices (failures of all four included) and the untraced ones.
func tracedRounds(w workload, d time.Duration, tr *obs.Tracer) (traced, plain round) {
	add := func(dst *round, r round) {
		dst.ops += r.ops
		dst.failed += r.failed
		dst.seconds += r.seconds
		dst.latMs = append(dst.latMs, r.latMs...)
		dst.rssMB = append(dst.rssMB, r.rssMB...)
		dst.errs = append(dst.errs, r.errs...)
	}
	for i := 0; i < 2; i++ {
		add(&plain, runRound(w, d/4, nil, true))
		add(&traced, runRound(w, d/4, tr, true))
	}
	traced.failed += plain.failed
	traced.errs = append(traced.errs, plain.errs...)
	return traced, plain
}

// writeTrace validates the spans and writes them as Chrome trace-event JSON
// to dir/trace-<workload>.json.
func writeTrace(tr *obs.Tracer, dir, workload string) (string, error) {
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr); err != nil {
		return "", err
	}
	if err := obs.ValidateChromeTraceJSON(buf.Bytes()); err != nil {
		return "", fmt.Errorf("trace of %s is not well-formed: %w", workload, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// runPass starts a fresh child for one pass and returns what it printed. The
// child gets its own process group, so that killing the group takes its
// daemon and workers with it.
func (h *harness) runPass(cfg passConfig, deadline time.Duration) (*passResult, error) {
	if err := os.MkdirAll(cfg.Tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.Tmp)
	spec, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(h.self, "-child", string(spec))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	var stdout bytes.Buffer
	errTail := &tail{}
	cmd.Stdout = &stdout
	cmd.Stderr = errTail
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	pgid := cmd.Process.Pid
	h.groups.add(pgid)
	defer h.groups.remove(pgid)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(deadline):
		killGroup(pgid)
		<-done
		return nil, fmt.Errorf("pass of %s did not end within %v\n%s", cfg.Workload, deadline.Round(time.Second), errTail)
	}
	killGroup(pgid) // whatever the child left running
	if err != nil {
		return nil, fmt.Errorf("pass of %s: %w\n%s", cfg.Workload, err, errTail)
	}
	var res passResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("pass of %s printed no result: %w\n%s", cfg.Workload, err, errTail)
	}
	return &res, nil
}

// pidSet holds the process groups the harness has running, for the signal
// handler to kill.
type pidSet struct {
	mu   sync.Mutex
	pids map[int]bool
}

func (s *pidSet) add(pid int) {
	s.mu.Lock()
	if s.pids == nil {
		s.pids = map[int]bool{}
	}
	s.pids[pid] = true
	s.mu.Unlock()
}

func (s *pidSet) remove(pid int) { s.mu.Lock(); delete(s.pids, pid); s.mu.Unlock() }

func (s *pidSet) killAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for pid := range s.pids {
		killGroup(pid)
	}
}

// killGroup kills every process of the group led by pgid; a group that is
// already gone is not an error.
func killGroup(pgid int) {
	if err := syscall.Kill(-pgid, syscall.SIGKILL); err != nil && !errors.Is(err, syscall.ESRCH) {
		fmt.Fprintf(os.Stderr, "bench: killing process group %d: %v\n", pgid, err)
	}
}
