package rpcexec

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"mrskyline/internal/mapreduce"
	"mrskyline/internal/obs"
	"mrskyline/internal/spill"
)

// Config shapes a ProcExecutor.
type Config struct {
	// Workers is the number of worker processes to spawn (required, >= 1).
	Workers int
	// BinPath is the worker binary; defaults to os.Args[0] — the current
	// binary re-exec'd, which is required for the kind registry to line up.
	BinPath string
	// LeaseTimeout bounds one task attempt before the master reclaims the
	// lease (default 5s).
	LeaseTimeout time.Duration
	// HeartbeatInterval is the worker beacon period (default 50ms);
	// HeartbeatTimeout is how stale a worker's last contact may go before
	// the master declares it dead (default 1s).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// LeasePoll is the idle worker's lease polling period (default 2ms).
	LeasePoll time.Duration
	// Trace, when non-nil, receives the master's spans and rpc.* metrics.
	Trace *obs.Tracer
	// Chaos[i], when set, tells worker i to SIGKILL itself at a chaos
	// event ("map", "reduce", "fetch", "serve", optionally ":n"). Tests
	// only.
	Chaos []string
	// TraceDir, when set, makes each worker write its own obs Chrome trace
	// to TraceDir/worker-<i>.trace.json on clean exit.
	TraceDir string
	// SpillBudget and SpillDir, when SpillBudget > 0, switch workers to
	// the external-memory shuffle: map-output segments are stored as files
	// under a per-worker subdirectory of SpillDir (served to peers from
	// disk) and reduce attempts merge spilled runs under the budget
	// instead of materializing their whole input. SpillFanIn caps the
	// merge fan-in (0 uses the spill package default).
	SpillBudget int64
	SpillDir    string
	SpillFanIn  int
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Workers < 1 {
		return cfg, errors.New("rpcexec: Config.Workers must be >= 1")
	}
	if cfg.BinPath == "" {
		cfg.BinPath = os.Args[0]
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 5 * time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 50 * time.Millisecond
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = time.Second
	}
	if cfg.LeasePoll <= 0 {
		cfg.LeasePoll = 2 * time.Millisecond
	}
	if len(cfg.Chaos) > cfg.Workers {
		return cfg, errors.New("rpcexec: more chaos specs than workers")
	}
	// The budget/dir pairing rule is shared with every other front end
	// (spill.ValidateSetup); only the stricter bits are rpcexec's own — an
	// explicit SpillDir is required because workers run in re-exec'd
	// processes with their own temp dirs.
	if err := spill.ValidateSetup(cfg.SpillBudget, cfg.SpillDir); err != nil {
		return cfg, fmt.Errorf("rpcexec: %w", err)
	}
	if cfg.SpillBudget > 0 {
		if cfg.SpillDir == "" {
			return cfg, errors.New("rpcexec: Config.SpillDir is required when SpillBudget is set")
		}
		if cfg.SpillFanIn < 0 || cfg.SpillFanIn == 1 {
			return cfg, fmt.Errorf("rpcexec: Config.SpillFanIn must be >= 2 (or 0 for the default), got %d", cfg.SpillFanIn)
		}
	}
	return cfg, nil
}

// ProcExecutor is the multi-process mapreduce.Executor: a leased Engine
// whose fleet is worker OS processes, served by an in-driver master over
// net/rpc. Running a job is the embedded Engine's business — a job must
// carry a registered Kind (mapreduce.RegisterKind), as its closures never
// cross the process boundary, and cancelling one abandons it: in-flight
// worker attempts finish and are fenced off. This type owns the processes.
// Workers are spawned once at New and serve every job until Close; dead
// workers are not respawned (capacity degrades, correctness does not —
// their tasks re-execute elsewhere). Of the Engine's fields only
// FaultInjector applies: Faults, Spill and Sim configure in-process runs.
type ProcExecutor struct {
	*mapreduce.Engine
	cfg    Config
	m      *master
	procs  []*exec.Cmd
	waits  []chan error
	closed bool
}

var _ mapreduce.Executor = (*ProcExecutor)(nil)

// New starts the master and spawns cfg.Workers worker processes, waiting
// until all have registered.
func New(cfg Config) (*ProcExecutor, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m, err := newMaster(cfg)
	if err != nil {
		return nil, err
	}
	p := &ProcExecutor{Engine: m.eng, cfg: cfg, m: m}
	for i := 0; i < cfg.Workers; i++ {
		if err := p.spawn(i); err != nil {
			p.Close()
			return nil, err
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for m.registeredWorkers() < cfg.Workers {
		if time.Now().After(deadline) {
			p.Close()
			return nil, fmt.Errorf("rpcexec: only %d/%d workers registered in time", m.registeredWorkers(), cfg.Workers)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return p, nil
}

func (p *ProcExecutor) spawn(i int) error {
	cmd := exec.Command(p.cfg.BinPath)
	cmd.Env = append(os.Environ(),
		workerEnvAddr+"="+p.m.addr,
		workerEnvIndex+"="+strconv.Itoa(i),
	)
	if i < len(p.cfg.Chaos) && p.cfg.Chaos[i] != "" {
		cmd.Env = append(cmd.Env, workerEnvChaos+"="+p.cfg.Chaos[i])
	}
	if p.cfg.TraceDir != "" {
		path := filepath.Join(p.cfg.TraceDir, fmt.Sprintf("worker-%d.trace.json", i))
		cmd.Env = append(cmd.Env, workerEnvTrace+"="+path)
	}
	if p.cfg.SpillBudget > 0 {
		cmd.Env = append(cmd.Env,
			workerEnvSpillBudget+"="+strconv.FormatInt(p.cfg.SpillBudget, 10),
			workerEnvSpillDir+"="+p.cfg.SpillDir,
			workerEnvSpillFanIn+"="+strconv.Itoa(p.cfg.SpillFanIn),
		)
	}
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = workerSysProcAttr() // die with the driver (linux)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("rpcexec: spawn worker %d: %w", i, err)
	}
	// Reap immediately on exit so chaos-killed workers never linger as
	// zombies — the shutdown tests assert on the live process table.
	wait := make(chan error, 1)
	go func() { wait <- cmd.Wait() }()
	p.procs = append(p.procs, cmd)
	p.waits = append(p.waits, wait)
	return nil
}

// WorkerPIDs returns the spawned workers' process ids, in spawn order;
// tests use it for process-table assertions.
func (p *ProcExecutor) WorkerPIDs() []int {
	pids := make([]int, len(p.procs))
	for i, c := range p.procs {
		pids[i] = c.Process.Pid
	}
	return pids
}

// Close shuts the executor down: workers are asked to exit via their next
// lease/heartbeat, given a grace period, then SIGKILLed; the master stops
// after all worker processes are reaped. Safe to call twice.
func (p *ProcExecutor) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	p.m.beginShutdown()
	grace := time.After(2 * time.Second)
	for i, wait := range p.waits {
		select {
		case <-wait:
		case <-grace:
			p.procs[i].Process.Kill()
			<-wait
			// Re-arm an already-fired grace channel for the remaining
			// workers: they get killed immediately too.
			expired := make(chan time.Time)
			close(expired)
			grace = expired
		}
	}
	p.m.stop()
	return nil
}
