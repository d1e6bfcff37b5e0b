package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// row is one measured number in the flat result schema that `-out` writes
// and `compare` reads.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	N        int     `json:"n"`
}

// result is one run of one workload.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Checks    []string `json:"failed_checks"`
	Rows      []row    `json:"rows"`
}

func (r *result) add(metric, unit string, value float64, n int) {
	r.Rows = append(r.Rows, row{Workload: r.Workload, Metric: metric, Unit: unit, Value: value, N: n})
}

// check records a failed output check. Every check is fatal to the run's
// verdict (correct=false, non-zero exit) but the run carries on, so one
// failure does not hide the next.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.Checks) == 0 && r.Failed == 0 }

// env is what the runs of one invocation share.
type env struct {
	root    string
	tracond string // the built binary
}

func newEnv() (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir(root), 0o755); err != nil {
		return nil, err
	}
	bin, err := buildTracond(root)
	if err != nil {
		return nil, err
	}
	return &env{root: root, tracond: bin}, nil
}

// tempDir makes a per-run scratch directory inside the checkout, removed
// on every exit path.
func (e *env) tempDir(name string) (string, error) {
	dir, err := os.MkdirTemp(buildDir(e.root), name+"-")
	if err != nil {
		return "", err
	}
	atExit(func() { os.RemoveAll(dir) })
	return dir, nil
}

const (
	// setupBoots is how often a run boots the daemon cold. A restart after
	// SIGKILL is repeated between minRecoveries and maxRecoveries times,
	// until recoveryBudget is spent. The run reports the lower quartile of
	// each (see secondBest): one boot's time is at the mercy of one
	// page-cache miss, and a 5 ms restart needs more repeats than a 700 ms
	// one can afford.
	setupBoots     = 3
	minRecoveries  = 3
	maxRecoveries  = 25
	recoveryBudget = 1500 * time.Millisecond
)

type healthz struct {
	FreeSlots  int `json:"free_slots"`
	QueueDepth int `json:"queue_depth"`
}

type modelsInfo struct {
	Generation uint64   `json:"generation"`
	Apps       []string `json:"apps"`
}

// serving is one booted workload: the daemon, its directory and what the
// load generator needs to know about it.
type serving struct {
	w     workload
	dir   string
	lib   string
	d     *daemon
	apps  []string
	gen   uint64
	setup time.Duration
}

// bootArgs are the workload's flags for a boot whose data directory is
// home/data. The first boots train and save the library; restarts load it,
// so recovery_s measures recovery and not retraining.
func (s *serving) bootArgs(home string, tasks int, restart bool) []string {
	args := s.w.daemonArgs(home)
	if s.w.fsync == "always" {
		args = append(args, "-snapshot-interval", "0", "-wal-max-bytes", strconv.FormatInt(walMaxBytes(tasks), 10))
	}
	if restart {
		return append(args, "-models", s.lib)
	}
	return append(args, "-save-models", s.lib)
}

// bootServing performs the workload's set-up: `boots` cold boots (the last
// one stays up), then the pre-fill. setup is the boots' lower quartile plus
// the pre-fill.
func bootServing(e *env, w workload, seed int64, tasks, boots int) (*serving, error) {
	dir, err := e.tempDir(w.name)
	if err != nil {
		return nil, err
	}
	s := &serving{w: w, dir: dir, lib: filepath.Join(dir, "lib.json")}
	var took []float64
	for i := 0; i < boots; i++ {
		data := filepath.Join(dir, "boot"+strconv.Itoa(i))
		if i == boots-1 {
			data = dir
		}
		d, dur, err := startDaemon(e.tracond, dir, s.bootArgs(data, tasks, false))
		if err != nil {
			return nil, err
		}
		took = append(took, dur.Seconds())
		if i < boots-1 {
			if err := d.terminate(); err != nil {
				return nil, err
			}
			continue
		}
		s.d = d
	}
	s.setup = time.Duration(secondBest(took, false) * float64(time.Second))

	c := newConn(s.d.base())
	defer c.close()
	var m modelsInfo
	if err := c.getJSON("/v1/models", &m); err != nil {
		return nil, err
	}
	s.apps, s.gen = m.Apps, m.Generation
	if w.prefill > 0 {
		t0 := time.Now()
		if err := prefill(c, s.apps, genTasks(seed+3<<32, w.prefill, len(s.apps), 0)); err != nil {
			return nil, err
		}
		s.setup += time.Since(t0)
	}
	return s, nil
}

// prefill submits tasks in the largest batches the daemon takes and leaves
// them placed.
func prefill(c *conn, apps []string, tasks []task) error {
	const maxBatch = 250
	t := &tally{}
	k := &caller{c: c, t: t, apps: apps}
	for lo := 0; lo < len(tasks); lo += maxBatch {
		hi := lo + maxBatch
		if hi > len(tasks) {
			hi = len(tasks)
		}
		ps, ok := k.submitBatch(lo, tasks[lo:hi])
		if !ok {
			return fmt.Errorf("pre-fill: %v", t.firstErr)
		}
		for _, p := range ps {
			if p.Status != "placed" {
				return fmt.Errorf("pre-fill: task %s is %s, not placed", p.ID, p.Status)
			}
		}
	}
	return nil
}

// load runs one phase of the workload's traffic against the booted daemon.
func (s *serving) load(tasks []task, idPrefix string) *tally {
	switch s.w.kind {
	case closedBatch:
		return runClosedBatch(s.d.base(), s.apps, tasks)
	case openLoop:
		return runOpen(s.d.base(), s.apps, tasks)
	}
	var reqID func(int) string
	if s.w.reqID {
		reqID = func(i int) string { return idPrefix + strconv.Itoa(i) }
	}
	return runClosedSingle(s.d.base(), s.apps, tasks, reqID)
}

// runServing measures one serving workload end to end against the real
// binary and checks its outputs.
func runServing(e *env, w workload, seed int64, seconds float64) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds}
	n := w.taskCount(seconds)
	s, err := bootServing(e, w, seed, n, setupBoots)
	if err != nil {
		return nil, err
	}
	all := genTasks(seed, warmupTasks+n, len(s.apps), 0)
	warm, timed := all[:warmupTasks], all[warmupTasks:]
	if w.kind == openLoop {
		for i, d := range poissonSchedule(seed, n, w.rate) {
			timed[i].due = d
		}
	}

	// Warm-up is closed-loop on every workload: it fills the prediction
	// cache and opens the connections' server side, and is not timed.
	wt := runClosedSingle(s.d.base(), s.apps, warm, nil)
	if wt.failed > 0 {
		return nil, fmt.Errorf("%s: warm-up: %d failed ops, first: %v", w.name, wt.failed, wt.firstErr)
	}

	pid := s.d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	idPrefix := "b" + strconv.FormatInt(seed, 10) + "-"
	t := s.load(timed, idPrefix)
	wall := time.Since(t0)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(pid)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	if t.firstErr != nil {
		res.check(false, "first failed op: %v", t.firstErr)
	}

	// Output checks on the live daemon.
	c := newConn(s.d.base())
	defer c.close()
	seen := make(map[string]bool, len(t.acked))
	for _, id := range t.acked {
		res.check(!seen[id], "placement ID %s acknowledged twice", id)
		seen[id] = true
	}
	res.check(len(t.acked) == n, "%d submits acknowledged, want %d", len(t.acked), n)
	res.check(t.completed == len(t.acked), "%d completions for %d acknowledged submits", t.completed, len(t.acked))
	var h healthz
	if err := c.getJSON("/healthz", &h); err != nil {
		return nil, err
	}
	wantFree := 2*w.machines - w.prefill
	res.check(h.FreeSlots == wantFree && h.QueueDepth == 0,
		"after the run %d slots free and %d queued, want %d and 0", h.FreeSlots, h.QueueDepth, wantFree)
	var m modelsInfo
	if err := c.getJSON("/v1/models", &m); err != nil {
		return nil, err
	}
	res.check(m.Generation == s.gen, "model generation moved %d → %d during the run", s.gen, m.Generation)

	// Crash and restart.
	recovery, err := s.crashAndRecover(e, res, t, n, idPrefix)
	if err != nil {
		return nil, err
	}

	res.add("setup_s", "s", s.setup.Seconds(), setupBoots)
	res.add("throughput_tasks_s", "1/s", segmentRate(t.doneAt, wall), t.completed)
	addLatency(res, "submit", t, func(p *tally) latencies { return p.submit })
	addLatency(res, "complete", t, func(p *tally) latencies { return p.complete })
	addLatency(res, "read", t, func(p *tally) latencies { return p.read })
	res.add("daemon_cpu_ms_per_task", "ms", (cpu1-cpu0).Seconds()*1e3/float64(max(t.completed, 1)), t.completed)
	res.add("peak_rss_mb", "MiB", rss, 1)
	res.add("recovery_s", "s", secondBest(recovery, false), len(recovery))
	if w.kind == openLoop {
		addOpenLoopAdvisories(res, t)
	}
	if len(t.scrape) > 0 {
		res.add("loadgen.scrape_p50_ms", "ms", quantile(sortedCopy(t.scrape.ms()), 0.5), len(t.scrape))
	}
	return res, nil
}

// addLatency reports one call's median and p99, each taken slice by slice
// over the phase (see segmentQuantile).
func addLatency(res *result, call string, t *tally, pick func(*tally) latencies) {
	parts := make([]latencies, len(t.parts))
	n := 0
	for i, p := range t.parts {
		parts[i] = pick(p)
		n += len(parts[i])
	}
	res.add(call+"_p50_ms", "ms", segmentQuantile(parts, 0.50), n)
	res.add(call+"_p99_ms", "ms", segmentQuantile(parts, 0.99), n)
	res.check(shortMode || topPercentile(n) >= 0.99, "%s: %d samples cannot support a p99", call, n)
}

// addOpenLoopAdvisories reports how well the generator kept its own
// schedule; an open-loop latency is only as good as the instants it was
// measured from.
func addOpenLoopAdvisories(res *result, t *tally) {
	late := sortedCopy(t.lateness.ms())
	p99 := quantile(late, 0.99)
	res.add("loadgen.lateness_p99_ms", "ms", p99, len(late))
	res.add("loadgen.over_5ms_share", "share", overShare(t.submit, 5*time.Millisecond), len(t.submit))
	res.check(p99 <= 1, "open-loop generator was %.3f ms late at p99 (limit 1 ms): run invalid", p99)
}

// crashAndRecover SIGKILLs the daemon and restarts it several times, each
// on its own copy of the crashed data directory (a restart compacts the
// journal, so a second restart on the same directory would replay nothing).
// It returns every SIGKILL → first 200 from /healthz, runs the durability
// checks on the last restart, and stops it with SIGTERM.
func (s *serving) crashAndRecover(e *env, res *result, t *tally, tasks int, idPrefix string) ([]float64, error) {
	w := s.w
	s.d.kill()
	journal := w.fsync != ""
	var times []float64
	var last *daemon
	var lastDir string
	var spent time.Duration
	for i := 0; ; i++ {
		dir := filepath.Join(s.dir, "crash"+strconv.Itoa(i))
		if journal {
			if err := copyDir(filepath.Join(s.dir, "data"), filepath.Join(dir, "data")); err != nil {
				return nil, err
			}
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		d, took, err := startDaemon(e.tracond, dir, s.bootArgs(dir, tasks, true))
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		times = append(times, took.Seconds())
		spent += took
		if n := i + 1; n < minRecoveries || (n < maxRecoveries && spent < recoveryBudget) {
			d.kill()
			continue
		}
		last, lastDir = d, dir
		break
	}

	if w.fsync == "always" {
		c := newConn(last.base())
		k := &caller{c: c, t: &tally{}, apps: s.apps}
		for _, id := range t.acked {
			p, ok := k.get(id, time.Now())
			if !ok || p.Status != "completed" {
				res.check(false, "after restart, acknowledged task %s is %q (first error: %v)", id, p.Status, k.t.firstErr)
				break
			}
		}
		// A client that never saw its acknowledgement retries under the
		// same request ID and must get the original placement back.
		lo := max(len(t.acked)-100, 0)
		for j := lo; j < len(t.acked); j++ {
			code, err := c.do("POST", "/v1/tasks", t.reqIDs[j], []byte(`{"app":"`+s.apps[0]+`"}`))
			var p placement
			if err == nil && code == 200 {
				err = json.Unmarshal(c.body.Bytes(), &p)
			}
			if err != nil || p.ID != t.acked[j] {
				res.check(false, "resubmitting request %s returned placement %q (status %d, %v), want %s", t.reqIDs[j], p.ID, code, err, t.acked[j])
				break
			}
		}
		c.close()
	}
	if err := last.terminate(); err != nil {
		res.check(false, "%v", err)
	}
	if journal {
		if err := verifyJournal(filepath.Join(lastDir, "data")); err != nil {
			res.check(false, "durable.Verify after restart: %v", err)
		}
	}
	return times, nil
}
