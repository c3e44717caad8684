package wal

// Crash-injection chaos suite. Each scenario re-executes the test binary
// as a child process that opens a Durable, applies a deterministic delta
// stream, and SIGKILLs ITSELF from the testCrash hook at a seeded,
// named point mid-batch — before the record hits the disk, after an
// unsynced write, mid-torn-write (a prefix of the record persisted),
// after fsync, after apply-before-ack, and at every checkpoint stage.
// The parent collects the generations the child acknowledged on stdout,
// recovers the directory in-process, and asserts the recovered skyline
// is byte-identical to a fresh rebuild of the first K batches for the K
// recovery reports — with K never below the acknowledged count under
// SyncAlways, and the torn tail never partially applied.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("WAL_CHAOS_DIR") != "" {
		chaosChild()
		os.Exit(0) // unreachable: chaosChild dies by SIGKILL
	}
	os.Exit(m.Run())
}

// chaosChild is the crash victim. It never returns normally: either the
// crash hook kills it, or it exits(3) to signal the hook never fired.
func chaosChild() {
	dir := os.Getenv("WAL_CHAOS_DIR")
	point := os.Getenv("WAL_CHAOS_POINT")
	hit, _ := strconv.Atoi(os.Getenv("WAL_CHAOS_HIT"))
	tear, _ := strconv.Atoi(os.Getenv("WAL_CHAOS_TEAR"))
	seed, _ := strconv.ParseInt(os.Getenv("WAL_CHAOS_SEED"), 10, 64)
	mode, err := ParseSyncMode(os.Getenv("WAL_CHAOS_SYNC"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	hits := 0
	testCrash = func(p string, _ uint64, f *os.File, pending []byte) {
		if p != point {
			return
		}
		if hits++; hits < hit {
			return
		}
		if tear > 0 && f != nil && len(pending) > 1 {
			// Simulate a torn write: a strict prefix of the record reaches
			// the disk before the "power" goes out.
			cut := len(pending) * tear / 100
			if cut == 0 {
				cut = 1
			}
			f.Write(pending[:cut])
			f.Sync()
		}
		os.Stdout.Sync()
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // the signal is fatal; never proceed past the point
	}

	o := Options{Sync: mode, CheckpointEvery: 4, SegmentBytes: 4096}
	d, err := Create(dir, seedRows(3).Clone(), testCfg, nil, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	out := bufio.NewWriter(os.Stdout)
	for _, b := range mkBatches(seed, 200, 3) {
		res, err := d.Apply(b)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// The flushed ack is the durability contract under test: anything
		// acknowledged here must survive under SyncAlways.
		fmt.Fprintf(out, "ack %d\n", res.Gen)
		out.Flush()
	}
	os.Exit(3) // crash point never hit: scenario bug
}

// runChaosChild spawns the victim and returns the highest generation it
// acknowledged before being SIGKILLed.
func runChaosChild(t *testing.T, dir, point string, hit, tear int, seed int64, mode SyncMode) (ackedGen uint64) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"WAL_CHAOS_DIR="+dir,
		"WAL_CHAOS_POINT="+point,
		fmt.Sprintf("WAL_CHAOS_HIT=%d", hit),
		fmt.Sprintf("WAL_CHAOS_TEAR=%d", tear),
		fmt.Sprintf("WAL_CHAOS_SEED=%d", seed),
		"WAL_CHAOS_SYNC="+mode.String(),
	)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("child exited cleanly (err=%v, stderr=%s); the crash hook must kill it", err, stderr.String())
	}
	if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child died with %v, want SIGKILL (stderr: %s)", ee, stderr.String())
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if g, ok := strings.CutPrefix(line, "ack "); ok {
			v, err := strconv.ParseUint(strings.TrimSpace(g), 10, 64)
			if err != nil {
				t.Fatalf("bad ack line %q", line)
			}
			ackedGen = v
		}
	}
	return ackedGen
}

func TestChaosCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns crash-victim child processes")
	}
	scenarios := []struct {
		point string
		hit   int
		tear  int
		mode  SyncMode
	}{
		// Mid-append crashes, every stage of a batch's life.
		{"append.write", 3, 0, SyncAlways},  // record never reaches disk
		{"append.write", 3, 60, SyncAlways}, // torn write: 60% of the record persisted
		{"append.write", 5, 30, SyncBatch},  // torn write under group commit
		{"append.unsynced", 4, 0, SyncAlways},
		{"append.synced", 4, 0, SyncAlways}, // durable but crash before apply+ack
		{"applied", 6, 0, SyncAlways},       // applied but crash before ack
		{"applied", 6, 0, SyncBatch},
		{"applied", 6, 0, SyncInterval},
		// Mid-checkpoint crashes. hit 2 for ckpt.written skips the
		// create-time seed snapshot, which passes the same point.
		{"ckpt.before", 1, 0, SyncAlways},
		{"ckpt.written", 2, 0, SyncAlways},
		{"ckpt.renamed", 1, 0, SyncAlways},
		{"ckpt.done", 1, 0, SyncAlways},
	}
	for i, sc := range scenarios {
		sc := sc
		seed := int64(100 + i)
		t.Run(fmt.Sprintf("%s_hit%d_tear%d_%s", sc.point, sc.hit, sc.tear, sc.mode), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			ackedGen := runChaosChild(t, dir, sc.point, sc.hit, sc.tear, seed, sc.mode)

			r, err := Recover(dir, Options{})
			if err != nil {
				t.Fatalf("recovery after %s crash: %v", sc.point, err)
			}
			defer r.Close()
			gen := r.Maintained().Generation()

			// A SIGKILL loses no OS-buffered file data, so regardless of sync
			// mode the recovered generation sits between the last ack and the
			// single in-flight batch; SyncAlways additionally guarantees no
			// acknowledged batch is ever lost.
			if ackedGen > 0 && gen < ackedGen {
				t.Fatalf("recovered generation %d below acknowledged %d", gen, ackedGen)
			}
			if maxGen := ackedGen + 1; strings.HasPrefix(sc.point, "append.") || sc.point == "applied" {
				if gen > maxGen {
					t.Fatalf("recovered generation %d past the one in-flight batch (acked %d)", gen, ackedGen)
				}
			}
			batches := mkBatches(seed, 200, 3)
			k := int(gen - 1) // seed publish is gen 1
			if k < 0 || k > len(batches) {
				t.Fatalf("recovered generation %d outside the sent history", gen)
			}
			mustEqualState(t, r.Maintained(), rebuild(t, k, batches, testCfg))

			if sc.tear > 0 && r.Recovery().TornBytes == 0 {
				t.Fatalf("torn-write scenario recovered with no torn bytes reported")
			}
			// The handle must remain writable after recovery.
			if _, err := r.Apply(batches[k%len(batches)]); err != nil {
				t.Fatalf("apply after recovery: %v", err)
			}
		})
	}
}

// TestChaosRepeatedCrashes chains crash → recover → crash → recover on
// one directory, the pattern a flapping process produces.
func TestChaosRepeatedCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns crash-victim child processes")
	}
	dir := t.TempDir()
	seed := int64(500)
	runChaosChild(t, dir, "applied", 5, 0, seed, SyncAlways)

	// Second incarnation: recover in-process, apply more, abandon.
	r, err := Recover(dir, Options{Sync: SyncAlways, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	batches := mkBatches(seed, 200, 3)
	k := int(r.Maintained().Generation() - 1)
	for _, b := range batches[k : k+7] {
		if _, err := r.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Abandon(); err != nil {
		t.Fatal(err)
	}

	r2, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	mustEqualState(t, r2.Maintained(), rebuild(t, k+7, batches, testCfg))
}
