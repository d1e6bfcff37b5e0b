package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runTraced is `-trace 1`: every per-layer number, the workload's ladder
// and stage budget, the tracing overhead and the open-loop sweep. The
// end-to-end metrics are never taken from this pass.
func runTraced(e *env, w workload, seed int64, seconds float64) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds}
	dir, err := e.tempDir("trace-" + w.name)
	if err != nil {
		return nil, err
	}
	lib, err := runMicro(res, dir)
	if err != nil {
		return nil, fmt.Errorf("micro-benchmarks: %w", err)
	}
	var spans []span
	if w.kind == simulated {
		spans, err = simBudget(res, w, seed, seconds)
	} else {
		spans, err = servingBudget(e, res, lib, w, seed, seconds, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	if err := openLoopSweep(e, res, seed, seconds); err != nil {
		return nil, fmt.Errorf("open-loop sweep: %w", err)
	}
	path := filepath.Join(buildDir(e.root), "spans-"+w.name+".ndjson")
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(spans), path)
	res.Attempted = len(spans)
	return res, nil
}

// tracedShare is the part of a workload's op stream the ladder replays.
const tracedShare = 4

// servingBudget replays the first quarter of the workload's op stream once
// per rung on a fresh in-process stack, once more against the real binary
// over one connection, and reports where a client-observed submit goes.
func servingBudget(e *env, res *result, lib *trained, w workload, seed int64, seconds float64, dir string) ([]span, error) {
	apps := lib.apps()
	full := w.taskCount(seconds)
	n := full / tracedShare / (clients * batchSize) * (clients * batchSize)
	n = max(n, clients*batchSize)
	if w.kind == closedBatch {
		// Enough turns that most batches arrive on the standing backlog.
		n = max(n, 4*clients*batchesOutstanding*batchSize)
	}
	tasks := genTasks(seed, warmupTasks+full, len(apps), 0)[warmupTasks : warmupTasks+n]
	idPrefix := fmt.Sprintf("b%d-", seed)
	kind := w.submitKind()
	var all []span

	// fresh builds the workload's stack at its set-up state.
	fresh := func(name string, journal bool) (*stack, error) {
		cfg := w.stackConfig(filepath.Join(dir, name), full)
		if !journal {
			cfg.fsync = ""
		}
		s, err := lib.stack(cfg)
		if err != nil {
			return nil, err
		}
		if w.prefill > 0 {
			if err := s.fill(w.prefill, seed+3<<32); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	stub, _, err := startDaemon(self, dir, []string{"wire"})
	if err != nil {
		return nil, fmt.Errorf("wire stub: %w", err)
	}
	cs := newConn(stub.base())
	defer cs.close()
	prime := func() { _, _ = cs.do("GET", "/v1/placements/t-1", "", nil) } // a failure shows up in the wire rung below

	// rung replays the stream once on a fresh stack entered through enter,
	// every timed call primed, keeps the spans, and returns the wall time.
	errs := 0
	rung := func(name string, journal, spans bool, enter func(*stack, *recorder) (*api, error)) (time.Duration, error) {
		s, err := fresh(name, journal)
		if err != nil {
			return 0, err
		}
		defer s.close()
		rec := newRecorder(spans)
		rec.prime = prime
		a, err := enter(s, rec)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := replayWithSnapshots(w, s, a, apps, tasks, idPrefix); err != nil {
			return 0, fmt.Errorf("%s rung: %w", name, err)
		}
		wall := time.Since(t0)
		all = append(all, rec.spans...)
		return wall, s.checkInvariants()
	}
	handler := func(s *stack, rec *recorder) (*api, error) {
		return httpAPI(rec, "handler", s.handlerRoundTrip(), &errs), nil
	}
	// The handler rung without spans and with: the difference is what
	// recording costs.
	plain, err := rung("handler-plain", true, false, handler)
	if err != nil {
		return nil, err
	}
	traced, err := rung("handler", true, true, handler)
	if err != nil {
		return nil, err
	}
	res.add("trace.overhead_share", "share", float64(traced-plain)/float64(traced), len(tasks))
	if _, err := rung("placer", true, true, func(s *stack, rec *recorder) (*api, error) {
		return s.placerAPI(rec, "placer"), nil
	}); err != nil {
		return nil, err
	}
	// The sched rung replays beside a placer that needs no journal.
	if _, err := rung("sched", false, true, func(s *stack, rec *recorder) (*api, error) {
		return s.schedAPI(rec, w)
	}); err != nil {
		return nil, err
	}

	// The client's view and the wire: the same stream over one connection,
	// against the real binary and against a server that decides nothing.
	// The two take turns, chunk by chunk, so that a drift in how fast this
	// host wakes an idle process lands on both.
	sv, err := bootServing(e, w, seed, full, 1)
	if err != nil {
		return nil, err
	}
	if wt := runClosedSingle(sv.d.base(), sv.apps, genTasks(seed, warmupTasks, len(sv.apps), 0), nil); wt.failed > 0 {
		return nil, fmt.Errorf("warm-up against the binary: %v", wt.firstErr)
	}
	rec := newRecorder(true)
	cd := newConn(sv.d.base())
	sides := []*api{httpAPI(rec, "client", connRoundTrip(cd), &errs), httpAPI(rec, "wire", connRoundTrip(cs), &errs)}
	const turns = 8
	for t := 0; t < turns && err == nil; t++ {
		chunk := tasks[t*len(tasks)/turns/batchSize*batchSize : (t+1)*len(tasks)/turns/batchSize*batchSize]
		for _, side := range sides {
			if err = replay(w, side, sv.apps, chunk, fmt.Sprintf("%s%d-", idPrefix, t)); err != nil {
				break
			}
		}
	}
	cd.close()
	if err != nil {
		return nil, fmt.Errorf("replay against the binary and the wire stub: %w", err)
	}
	if err := stub.terminate(); err != nil {
		return nil, err
	}
	if err := sv.d.terminate(); err != nil {
		return nil, err
	}
	all = append(all, rec.spans...)

	med := func(name string) float64 { v, _ := medianUS(all, name, kind); return v }
	l := ladder{wire: med("wire"), handler: med("handler"), placer: med("placer"), sched: med("sched"), durable: med("durable")}
	client := med("client")
	res.add("transport.self_us", "us", l.wire, n)
	shares := l.selfTimes(client)
	for _, layer := range budgetLayers {
		res.add("budget."+layer, "share", shares[layer]/client, n)
	}
	for _, rung := range []string{"client", "wire", "handler", "placer", "sched", "predict", "durable"} {
		for _, k := range []string{"submit", "batch", "get", "complete"} {
			if us, cnt := medianUS(all, rung, k); cnt > 0 {
				res.add("ladder."+rung+"."+k+"_us", "us", us, cnt)
			}
		}
	}
	return all, nil
}

// replayWithSnapshots is replay for a stack that journals: between ops it
// does the snapshot loop's job, untimed.
func replayWithSnapshots(w workload, s *stack, a *api, apps []string, tasks []task, idPrefix string) error {
	if s.mgr == nil {
		return replay(w, a, apps, tasks, idPrefix)
	}
	wrapped := *a
	wrapped.submit = func(op int, app, reqID string) (placement, error) {
		if err := s.snapshotIfSignalled(); err != nil {
			return placement{}, err
		}
		return a.submit(op, app, reqID)
	}
	return replay(w, &wrapped, apps, tasks, idPrefix)
}

// simBudget replays the first quarter of sim-fig11's horizon twice, plain
// and with the timing decorators around the scheduler and the predictor,
// and splits the traced wall time over sim, sched and model.
func simBudget(res *result, w workload, seed int64, seconds float64) ([]span, error) {
	sys, err := newSimSystem()
	if err != nil {
		return nil, err
	}
	hours := w.simHours(seconds) / tracedShare
	tasks := simArrivals(seed, simLambda, hours)
	fp, plain, err := sys.run(w, tasks, hours)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(true)
	tr, err := sys.runTraced(w, tasks, hours, rec)
	if err != nil {
		return nil, err
	}
	res.check(tr.fp == fp, "timing decorators changed the simulation: %s, plain %s", tr.fp, fp)
	res.add("trace.overhead_share", "share", float64(tr.wall-plain)/float64(tr.wall), len(tasks))
	res.add("transport.self_us", "us", 0, 0)
	wall := float64(tr.wall)
	shares := map[string]float64{
		"sim":   float64(tr.wall-tr.sched) / wall,
		"sched": float64(tr.sched-tr.model) / wall,
		"model": float64(tr.model) / wall,
	}
	for _, layer := range budgetLayers {
		res.add("budget."+layer, "share", shares[layer], tr.schedCalls)
	}
	return rec.spans, nil
}

// sweepRates are the advisory open-loop sweep's arrival rates in tasks/s.
var sweepRates = []float64{1000, 2000, 3000, 4000}

// openLoopSweep offers steady-8m's daemon a rising Poisson load and reports
// how well the generator kept its schedule and where latency gives way: the
// knee is the highest swept rate at which nothing failed, goodput kept up
// with the offered rate and the submit p99, from the due instant, stayed
// under 5 ms. The generator's own numbers are taken at open-2k's rate.
func openLoopSweep(e *env, res *result, seed int64, seconds float64) error {
	w, _ := workloadByName("open-2k")
	sv, err := bootServing(e, w, seed, 0, 1)
	if err != nil {
		return err
	}
	if wt := runClosedSingle(sv.d.base(), sv.apps, genTasks(seed, warmupTasks, len(sv.apps), 0), nil); wt.failed > 0 {
		return fmt.Errorf("warm-up: %v", wt.firstErr)
	}
	step := 3 * seconds / 20 // the issue's 3 s steps, scaled like every count
	knee := 0.0
	for _, rate := range sweepRates {
		n := max(int(rate*step), clients*readEvery)
		tasks := genTasks(seed, n, len(sv.apps), rate)
		cpu0, err := procCPU(os.Getpid())
		if err != nil {
			return err
		}
		t0 := time.Now()
		t := runOpen(sv.d.base(), sv.apps, tasks)
		wall := time.Since(t0)
		cpu1, err := procCPU(os.Getpid())
		if err != nil {
			return err
		}
		sub := sortedCopy(t.submit.ms())
		p99 := quantile(sub, 0.99)
		res.add(fmt.Sprintf("sweep.%.0f.submit_p99_ms", rate), "ms", p99, len(sub))
		res.add(fmt.Sprintf("sweep.%.0f.goodput_tasks_s", rate), "1/s", float64(t.completed)/wall.Seconds(), t.completed)
		res.add(fmt.Sprintf("sweep.%.0f.failed_ops", rate), "count", float64(t.failed), t.attempted)
		if t.failed == 0 && p99 <= 5 && float64(t.completed)/wall.Seconds() >= 0.95*rate {
			knee = rate
		}
		if rate == w.rate {
			late := sortedCopy(t.lateness.ms())
			res.add("loadgen.lateness_p99_ms", "ms", quantile(late, 0.99), len(late))
			res.add("loadgen.over_5ms_share", "share", overShare(t.submit, 5*time.Millisecond), len(t.submit))
			// Share of the host's cores the generator itself kept busy.
			res.add("loadgen.cpu_share", "share", (cpu1-cpu0).Seconds()/wall.Seconds()/float64(runtime.NumCPU()), 1)
		}
		if t.failed > 0 {
			// Past saturation the daemon holds queued tasks this sweep
			// will never complete; stop rather than pile more on.
			break
		}
	}
	res.add("loadgen.knee_rate_per_s", "1/s", knee, len(sweepRates))
	return sv.d.terminate()
}
