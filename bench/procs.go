package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Process hygiene for the subprocess workloads: servers bind port 0 and are
// found from their announcement line, log to bench/out, get a fresh data
// directory, and are stopped on every exit path. A server that died before
// it was stopped, or a port or data directory left behind, fails the run.

const (
	buildDir = ".bench_build" // compiled program under test (git-ignored)
	outDir   = "bench/out"    // traces, results, server stderr (git-ignored)
)

// announcePrefix is the line a serving role prints once it listens.
const announcePrefix = "grazelle: serving on "

// buildGrazelle compiles the program under test from the checkout's sources.
// It must run from the module root; anywhere else the build fails and the
// benchmark exits non-zero without a result.
func buildGrazelle(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "grazelle"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/grazelle")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/grazelle: %w\n%s", err, out)
	}
	return bin, nil
}

// proc is one running server under test.
type proc struct {
	role    string
	url     string
	cmd     *exec.Cmd
	cancel  context.CancelFunc
	done    chan struct{} // closed once Wait returned
	waitErr error
	stopped bool
	dataDir string
	stderr  string // path of the captured stderr
}

// procSet owns every server a run started so that one call stops them all.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
	seq   int
}

// start launches `grazelle <role> -addr 127.0.0.1:0 -log-level error args…`
// and waits for its address announcement. withDataDir adds a fresh
// -data-dir under bench/out.
func (ps *procSet) start(ctx context.Context, bin, role string, withDataDir bool, args ...string) (*proc, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	ps.mu.Lock()
	ps.seq++
	tag := fmt.Sprintf("%s-%d-%d", role, os.Getpid(), ps.seq)
	ps.mu.Unlock()

	p := &proc{role: role, done: make(chan struct{}), stderr: filepath.Join(outDir, tag+".stderr")}
	full := append([]string{role, "-addr", "127.0.0.1:0", "-log-level", "error"}, args...)
	if withDataDir {
		dir, err := filepath.Abs(filepath.Join(outDir, "data-"+tag))
		if err != nil {
			return nil, err
		}
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		p.dataDir = dir
		full = append(full, "-data-dir", dir)
	}
	stderr, err := os.Create(p.stderr)
	if err != nil {
		return nil, err
	}
	defer stderr.Close() // the child holds its own descriptor

	pctx, cancel := context.WithCancel(ctx)
	p.cancel = cancel
	p.cmd = exec.CommandContext(pctx, bin, full...)
	p.cmd.Stderr = stderr
	// SIGTERM lets the server drain and close its store; the kill after
	// WaitDelay covers one that does not.
	p.cmd.Cancel = func() error { return p.cmd.Process.Signal(syscall.SIGTERM) }
	p.cmd.WaitDelay = 10 * time.Second
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		cancel()
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		cancel()
		return nil, err
	}
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()

	announced := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), announcePrefix); ok {
				select {
				case announced <- strings.TrimSpace(rest):
				default:
				}
			}
		}
		// stdout is drained to EOF before Wait, as os/exec requires.
		p.waitErr = p.cmd.Wait()
		close(p.done)
	}()
	select {
	case p.url = <-announced:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before announcing its address: %v (see %s)", role, p.waitErr, stderr.Name())
	case <-time.After(120 * time.Second):
		ps.stop(p)
		return nil, fmt.Errorf("%s never announced its address", role)
	}
}

// exitedEarly reports whether the server ended without being asked to.
func (p *proc) exitedEarly() bool {
	if p.stopped {
		return false
	}
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop ends one server, waits for it, and checks nothing was left behind.
func (ps *procSet) stop(p *proc) error {
	var errs []error
	if p.exitedEarly() {
		errs = append(errs, fmt.Errorf("%s at %s exited early: %v", p.role, p.url, p.waitErr))
	}
	p.stopped = true
	p.cancel()
	<-p.done
	if u, err := url.Parse(p.url); err == nil && u.Host != "" {
		if c, err := net.DialTimeout("tcp", u.Host, 200*time.Millisecond); err == nil {
			c.Close()
			errs = append(errs, fmt.Errorf("%s left port %s open", p.role, u.Host))
		}
	}
	if fi, err := os.Stat(p.stderr); err == nil && fi.Size() == 0 {
		os.Remove(p.stderr) // nothing was logged; keep bench/out to what is worth reading
	}
	if p.dataDir != "" {
		if err := os.RemoveAll(p.dataDir); err != nil {
			errs = append(errs, fmt.Errorf("%s data dir: %w", p.role, err))
		}
	}
	ps.mu.Lock()
	for i, q := range ps.procs {
		if q == p {
			ps.procs = append(ps.procs[:i], ps.procs[i+1:]...)
			break
		}
	}
	ps.mu.Unlock()
	return errors.Join(errs...)
}

// stopAll stops every server still running, newest first.
func (ps *procSet) stopAll() error {
	var errs []error
	for {
		ps.mu.Lock()
		n := len(ps.procs)
		var p *proc
		if n > 0 {
			p = ps.procs[n-1]
		}
		ps.mu.Unlock()
		if p == nil {
			return errors.Join(errs...)
		}
		errs = append(errs, ps.stop(p))
	}
}

// procUsage is what /proc reports about a live process.
type procUsage struct {
	cpuS      float64 // user + system CPU seconds so far
	peakRSSMB float64 // VmHWM
}

// clockTick is the kernel's USER_HZ; Linux has fixed it at 100 on every
// architecture Go runs on.
const clockTick = 100

// usageOfAll sums the usage of live server processes; one that cannot be
// read (it is gone) contributes nothing, and its early exit is reported when
// it is stopped.
func usageOfAll(procs []*proc) procUsage {
	var total procUsage
	for _, p := range procs {
		if u, err := usageOf(p.cmd.Process.Pid); err == nil {
			total.cpuS += u.cpuS
			total.peakRSSMB += u.peakRSSMB
		}
	}
	return total
}

func usageOf(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, so the 12th and 13th after it.
	i := strings.LastIndexByte(string(stat), ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return u, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("unexpected /proc/%d/stat times", pid)
	}
	u.cpuS = (ut + st) / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return u, fmt.Errorf("unexpected VmHWM in /proc/%d/status", pid)
			}
			u.peakRSSMB = kb / 1024
		}
	}
	return u, nil
}
