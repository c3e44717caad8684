package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/skylined from the repository at repoRoot into
// binDir and returns the binary's path. The build is not timed by any
// metric; its failure is fatal to the caller, with the compiler's output in
// the error. The compiler runs in a process group of its own, registered in
// groups, so that an interrupt kills it too.
func buildDaemon(repoRoot, binDir string, groups *pidSet) (string, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	out := binDir + "/skylined"
	cmd := exec.Command("go", "build", "-o", out, "./cmd/skylined")
	cmd.Dir = repoRoot
	var msg bytes.Buffer
	cmd.Stdout, cmd.Stderr = &msg, &msg
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	groups.add(cmd.Process.Pid)
	err := cmd.Wait()
	groups.remove(cmd.Process.Pid)
	if err != nil {
		return "", fmt.Errorf("building cmd/skylined in %s: %w\n%s", repoRoot, err, msg.Bytes())
	}
	return out, nil
}

// tail keeps the last few KiB a child wrote to standard error, to show when
// the child fails.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailMax = 8 << 10

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailMax {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailMax:]...)
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// daemon is one running skylined.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *tail
	exited chan struct{} // closed once Wait returned
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon launches bin on a port the kernel picks (-addr 127.0.0.1:0,
// read back from the daemon's own log line, so two harnesses never race for
// a port) and waits until /healthz answers to c.
func startDaemon(c *http.Client, bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, log: &tail{}, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drain the log for the daemon's whole life: a full pipe would block it.
		r := bufio.NewReader(stderr)
		found := false
		for {
			line, err := r.ReadString('\n')
			d.log.Write([]byte(line))
			if m := listenRE.FindStringSubmatch(line); m != nil && !found {
				found = true
				addr <- m[1]
			}
			if err != nil {
				break
			}
		}
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("skylined exited before listening:\n%s", d.log)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("skylined did not listen within 60s:\n%s", d.log)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := do(c, http.MethodGet, d.base+"/healthz", nil)
		if err == nil {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("skylined /healthz not ready: %v\n%s", err, d.log)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to shut down gracefully (SIGTERM: final checkpoints
// are written) and waits for it; a daemon still alive after 20 s is killed.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		if st := d.cmd.ProcessState; st != nil && !st.Success() {
			return fmt.Errorf("skylined exited with %v:\n%s", st, d.log)
		}
		return nil
	case <-time.After(20 * time.Second):
		d.kill()
		return errors.New("skylined ignored SIGTERM for 20s; killed")
	}
}

func (d *daemon) kill() {
	if d == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.exited
}

// httpClient returns a keep-alive client that never opens more than conns
// connections to the daemon.
func httpClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// do sends one request and reads the whole response body; a non-200 status
// is an error carrying the body's first bytes.
func do(c *http.Client, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		if len(out) > 200 {
			out = out[:200]
		}
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, out)
	}
	return out, nil
}

// rssMB reads VmRSS of pid from /proc, in MiB.
func rssMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}
