package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot finds the checkout: the nearest directory at or above the
// working directory whose go.mod declares module tracon. `go run -C bench .`
// starts the program inside bench/, so this is normally "..".
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module tracon\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the tracon checkout (no go.mod with `module tracon` above the working directory)")
		}
		dir = parent
	}
}

// buildDir is where everything the bench leaves behind goes: the tracond
// binary, per-run temp dirs and span files. It is inside the checkout and
// named in .gitignore.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// cleanups run on every exit path (normal return, failed check, signal):
// they kill child daemons and remove temp dirs.
var cleanups struct {
	sync.Mutex
	fns []func()
}

func atExit(fn func()) {
	cleanups.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.Unlock()
}

func runCleanups() {
	cleanups.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// buildTracond compiles the program under test once per invocation. The
// go build cache makes a rebuild of unchanged source cheap; the time is
// never part of setup_s.
func buildTracond(root string) (string, error) {
	out := filepath.Join(buildDir(root), "tracond")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/tracond")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/tracond: %v\n%s", err, b)
	}
	return out, nil
}

// daemon is one running tracond child.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *bytes.Buffer
	done   chan struct{} // closed when Wait has returned
	err    error         // Wait's result
}

// startDaemon execs bin (tracond, or the bench's own wire stub) with args
// plus -addr and -portfile, and waits for the first 200 from /healthz. The
// returned duration is exec → that 200: for tracond, training or loading
// the library, opening and replaying the journal, building the inventory.
func startDaemon(bin, dir string, args []string) (*daemon, time.Duration, error) {
	portfile := filepath.Join(dir, fmt.Sprintf("port-%d", time.Now().UnixNano()))
	full := append(append([]string(nil), args...), "-addr", "127.0.0.1:0", "-portfile", portfile)
	d := &daemon{cmd: exec.Command(bin, full...), stderr: &bytes.Buffer{}, done: make(chan struct{})}
	d.cmd.Stderr = d.stderr
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	atExit(d.kill)

	deadline := t0.Add(60 * time.Second)
	for {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("tracond exited during boot: %v\n%s", d.err, d.stderr)
		default:
		}
		if b, err := os.ReadFile(portfile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.addr = strings.TrimSpace(string(b))
			break
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, errors.New("tracond wrote no portfile within 60s")
		}
		nanosleep(100 * time.Microsecond)
	}
	os.Remove(portfile)
	probe := &http.Client{Timeout: 5 * time.Second}
	defer probe.CloseIdleConnections()
	for {
		resp, err := probe.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("tracond not healthy within 60s: %v", err)
		}
		nanosleep(100 * time.Microsecond)
	}
}

func (d *daemon) base() string { return "http://" + d.addr }

// kill is SIGKILL and reap; safe to call twice and on an exited child.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// terminate sends SIGTERM and reports whether tracond drained and exited 0.
func (d *daemon) terminate() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("tracond did not exit within 30s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("tracond exit after SIGTERM: %v\n%s", d.err, d.stderr)
	}
	return nil
}

// clockTick is USER_HZ; Linux fixes it at 100 for every architecture Go
// supports.
const clockTick = 100

// procCPU returns utime+stime of a process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may contain spaces; fields
	// after the closing parenthesis are fixed. utime and stime are the
	// 14th and 15th overall, so the 12th and 13th after ") ".
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procPeakRSS returns VmHWM, the process's peak resident set, in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// copyDir copies a flat directory (tracond's data dir has no subdirectories).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
