package main

// Every call into a package outside bench/ lives in this file, so an API
// change in the program under test touches one shim. The rest of the bench
// sees only the small types declared here.

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tracon"
	"tracon/internal/core"
	"tracon/internal/durable"
	"tracon/internal/model"
	"tracon/internal/obs"
	"tracon/internal/sched"
	"tracon/internal/serve"
	"tracon/internal/sim"
	wl "tracon/internal/workload"
	"tracon/internal/xen"
)

// verifyJournal checks every snapshot CRC, frame CRC and the cross-segment
// sequence chain of a data directory.
func verifyJournal(dir string) error {
	_, err := durable.Verify(dir)
	return err
}

// ---- sim-fig11 ----

// simSystem is a trained TRACON deployment for the simulator workload.
type simSystem struct{ sys *tracon.System }

// newSimSystem is sim-fig11's set-up: profile the eight Table 3 benchmarks
// on the simulated testbed and train their models. Like the daemon, it
// always trains with seed 1; the bench seed only shapes the arrivals.
func newSimSystem() (*simSystem, error) {
	sys, err := tracon.New(tracon.Config{Seed: 1})
	if err != nil {
		return nil, err
	}
	if err := sys.RegisterBenchmarks(); err != nil {
		return nil, err
	}
	return &simSystem{sys: sys}, nil
}

// simTask hides sched.Task from the rest of the bench.
type simTask = sched.Task

// simArrivals draws the Fig 11 arrival stream: Poisson at lambda tasks per
// minute from the medium mix, the way System.RunDynamic does, but from the
// bench seed.
func simArrivals(seed int64, lambdaPerMin, hours float64) []simTask {
	times := wl.Arrivals(rand.New(rand.NewSource(seed)), lambdaPerMin, hours*3600)
	mixer := wl.NewMixer(seed + 1)
	tasks := make([]simTask, len(times))
	for i, tm := range times {
		tasks[i] = sched.Task{ID: int64(i), App: wl.BaseName(mixer.Draw(wl.MediumIO).Spec.Name), Arrival: tm}
	}
	return tasks
}

// simFingerprint is what a simulation must reproduce bit for bit.
type simFingerprint struct {
	Submitted, Completed  int
	RuntimeBits, IOPSBits uint64
}

func (f simFingerprint) String() string {
	return fmt.Sprintf("%d %d %016x %016x", f.Submitted, f.Completed, f.RuntimeBits, f.IOPSBits)
}

func fingerprintOf(r *sim.Results) simFingerprint {
	return simFingerprint{
		Submitted: r.Submitted, Completed: r.CompletedCount,
		RuntimeBits: math.Float64bits(r.TotalRuntime), IOPSBits: math.Float64bits(r.TotalIOPS),
	}
}

// simLambda is Fig 11's arrival rate in tasks per simulated minute.
const simLambda = 1000

// run simulates the workload's cluster over tasks through the public
// controller path, untraced.
func (s *simSystem) run(w workload, tasks []simTask, hours float64) (simFingerprint, time.Duration, error) {
	spec := core.SchedulerSpec{Policy: w.policy, QueueLen: w.queueLen, Objective: sched.MinRuntime}
	t0 := time.Now()
	res, err := s.sys.Controller().Simulate(spec, w.machines, tasks, hours*3600)
	took := time.Since(t0)
	if err != nil {
		return simFingerprint{}, 0, err
	}
	return fingerprintOf(res), took, nil
}

// timedPredictor and timedScheduler are the sim's spans: the simulator
// takes its scheduler, and the scorer its predictor, as interfaces, so real
// nested timings are possible from outside. Predictor calls are far too
// many for a span each; their time and count accumulate and are drained
// into one span per scheduling pass.
type timedPredictor struct {
	model.Predictor
	ns    int64
	calls int
}

// done books one call that began at t0; use as `defer p.done(time.Now())`.
func (p *timedPredictor) done(t0 time.Time) {
	p.ns += int64(time.Since(t0))
	p.calls++
}

func (p *timedPredictor) PredictRuntime(t, c string) (float64, error) {
	defer p.done(time.Now())
	return p.Predictor.PredictRuntime(t, c)
}

func (p *timedPredictor) PredictIOPS(t, c string) (float64, error) {
	defer p.done(time.Now())
	return p.Predictor.PredictIOPS(t, c)
}

func (p *timedPredictor) SoloRuntime(t string) (float64, error) {
	defer p.done(time.Now())
	return p.Predictor.SoloRuntime(t)
}

func (p *timedPredictor) SoloIOPS(t string) (float64, error) {
	defer p.done(time.Now())
	return p.Predictor.SoloIOPS(t)
}

// drain returns and resets what accumulated since the last drain.
func (p *timedPredictor) drain() (time.Duration, int) {
	d, c := time.Duration(p.ns), p.calls
	p.ns, p.calls = 0, 0
	return d, c
}

type timedScheduler struct {
	sched.Scheduler
	rec   *recorder
	pred  *timedPredictor
	calls int
}

func (s *timedScheduler) Schedule(batch []sched.Task, counts sched.Counts, load sched.Load) (out []sched.Placement, err error) {
	op := s.calls
	s.calls++
	s.rec.do("sched", "schedule", op, func() { out, err = s.Scheduler.Schedule(batch, counts, load) })
	d, c := s.pred.drain()
	s.rec.add("predict", "schedule", op, d, c)
	return out, err
}

// newScheduler builds a policy over a predictor the way the controller and
// the daemon do.
func newScheduler(policy string, queueLen int, pred model.Predictor) (sched.Scheduler, error) {
	scorer := sched.NewScorer(pred, sched.MinRuntime)
	switch policy {
	case "fifo":
		return sched.FIFO{}, nil
	case "mios":
		return &sched.MIOS{Scorer: scorer}, nil
	case "mibs":
		return &sched.MIBS{Scorer: scorer, QueueLen: queueLen}, nil
	case "mix":
		return &sched.MIX{Scorer: scorer, QueueLen: queueLen}, nil
	}
	return nil, fmt.Errorf("unknown policy %q", policy)
}

// simTrace is a traced simulation's account of where the host time went.
type simTrace struct {
	fp           simFingerprint
	wall         time.Duration
	schedCalls   int
	sched, model time.Duration // inclusive scheduler time; predictor time inside it
}

// runTraced simulates with the timing decorators in place and spans
// recorded in rec.
func (s *simSystem) runTraced(w workload, tasks []simTask, hours float64, rec *recorder) (*simTrace, error) {
	ctrl := s.sys.Controller()
	table, err := ctrl.InterferenceTable()
	if err != nil {
		return nil, err
	}
	pred := &timedPredictor{Predictor: ctrl.Library()}
	inner, err := newScheduler(w.policy, w.queueLen, pred)
	if err != nil {
		return nil, err
	}
	ts := &timedScheduler{Scheduler: inner, rec: rec, pred: pred}
	eng, err := sim.NewEngine(sim.Config{
		Machines: w.machines, Scheduler: ts, Table: table,
		DropRecords: len(tasks) > 200000, // as Controller.Simulate does
	})
	if err != nil {
		return nil, err
	}
	var res *sim.Results
	rec.do("sim", "run", 0, func() { res, err = eng.Run(tasks, hours*3600) })
	if err != nil {
		return nil, err
	}
	out := &simTrace{fp: fingerprintOf(res), schedCalls: ts.calls}
	for _, sp := range rec.spans {
		d := time.Duration(sp.End - sp.Start)
		switch sp.Name {
		case "sim":
			out.wall = d
		case "sched":
			out.sched += d
		case "predict":
			out.model += d
		}
	}
	return out, nil
}

// buildTable times sim.BuildInterferenceTable, the simulator's own set-up.
func buildTable() (time.Duration, error) {
	host, err := xen.NewHost(xen.DefaultHost())
	if err != nil {
		return 0, err
	}
	var specs []xen.AppSpec
	for _, b := range wl.Benchmarks() {
		specs = append(specs, b.Spec)
	}
	t0 := time.Now()
	_, err = sim.BuildInterferenceTable(host, specs)
	return time.Since(t0), err
}

// ---- the serving stack, in-process ----

// trainLibrary is tracond's bring-up: profile the Table 3 benchmarks on the
// simulated testbed and fit the NLM family, seed 1.
func trainLibrary() (*model.Library, time.Duration, error) {
	t0 := time.Now()
	host, err := xen.NewHost(xen.DefaultHost())
	if err != nil {
		return nil, 0, err
	}
	tb := xen.NewTestbed(host, 3, 0.05, 1)
	var targets, bgs []xen.AppSpec
	for _, b := range wl.Benchmarks() {
		targets = append(targets, b.Spec)
	}
	for _, p := range wl.ProfilingWorkloads(host.Config().Disk) {
		bgs = append(bgs, p.Spec)
	}
	lib, err := model.BuildLibrary(tb, targets, bgs, model.NLM)
	return lib, time.Since(t0), err
}

// fsCounts is what the counting filesystem saw.
type fsCounts struct {
	writes, syncs int
	bytes         int64
	syncTimes     []time.Duration
	// busy is the time spent inside Write and Sync since the last drain.
	busy  time.Duration
	calls int
}

// countingFS wraps a durable.FS and counts and times what reaches it.
// Errors pass through untouched; a failed call is still counted as
// attempted, since the layer did issue it.
type countingFS struct {
	durable.FS
	mu sync.Mutex
	n  fsCounts
}

func (c *countingFS) counts() fsCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	n.syncTimes = append([]time.Duration(nil), c.n.syncTimes...)
	return n
}

func (c *countingFS) Create(name string, excl bool) (durable.File, error) {
	f, err := c.FS.Create(name, excl)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) OpenWrite(name string) (durable.File, error) {
	f, err := c.FS.OpenWrite(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	durable.File
	fs *countingFS
}

// drainBusy returns and resets the time the journal has spent in the
// filesystem since the last drain, and in how many calls.
func (c *countingFS) drainBusy() (time.Duration, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, n := c.n.busy, c.n.calls
	c.n.busy, c.n.calls = 0, 0
	return d, n
}

func (f *countingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	d := time.Since(t0)
	f.fs.mu.Lock()
	f.fs.n.writes++
	f.fs.n.bytes += int64(n)
	f.fs.n.busy += d
	f.fs.n.calls++
	f.fs.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	f.fs.mu.Lock()
	f.fs.n.syncs++
	f.fs.n.syncTimes = append(f.fs.n.syncTimes, d)
	f.fs.n.busy += d
	f.fs.n.calls++
	f.fs.mu.Unlock()
	return err
}

// stackConfig is what distinguishes one in-process stack from another.
type stackConfig struct {
	machines int
	policy   string
	queueLen int
	// fsync is "" for no journal; dir is then unused.
	fsync string
	dir   string
	// walMax is the segment size that asks for a snapshot (0: never).
	walMax int64
	// obsOff turns the request instrumentation off as far as serve.Config
	// allows: no span ring, no logger.
	obsOff bool
	// coalesce is the micro-batching window (0: off, as in the workloads).
	coalesce time.Duration
}

// stackConfig is the workload's daemon flags as an in-process
// configuration; tasks sizes durable-always's WAL segment as in the real run.
func (w workload) stackConfig(dir string, tasks int) stackConfig {
	cfg := stackConfig{machines: w.machines, policy: w.policy, queueLen: w.queueLen, fsync: w.fsync, dir: dir}
	if w.fsync == "always" {
		cfg.walMax = walMaxBytes(tasks)
	}
	return cfg
}

// stack is the daemon assembled in-process from public constructors, the
// way cmd/tracond assembles it.
type stack struct {
	srv     *serve.Server
	handler http.Handler
	mgr     *durable.Manager
	fs      *countingFS
	apps    []string
}

func newStack(lib *model.Library, cfg stackConfig) (*stack, error) {
	s := &stack{apps: lib.Apps()}
	if cfg.fsync != "" {
		var err error
		s.mgr, s.fs, err = openJournal(filepath.Join(cfg.dir, "data"), cfg.fsync, durable.OSFS{}, cfg.walMax)
		if err != nil {
			return nil, err
		}
	}
	sc := serve.Config{
		Machines: cfg.machines, Policy: cfg.policy, QueueLen: cfg.queueLen,
		Journal: s.mgr, CoalesceWindow: cfg.coalesce,
		// tracond's default logger: text to stderr at info. The request
		// path logs at debug, so what is measured is the level check.
		Logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	}
	if cfg.obsOff {
		sc.TraceCap = -1
		sc.Logger = nil
	}
	var err error
	if s.srv, err = serve.New(lib, sc); err != nil {
		s.close()
		return nil, err
	}
	s.handler = s.srv.Handler()
	return s, nil
}

func (s *stack) close() {
	if s.mgr != nil {
		_ = s.mgr.Close() // the data dir is a temp dir about to be removed
	}
}

// checkInvariants is the placer's own bookkeeping audit, run after the
// last op of every replay.
func (s *stack) checkInvariants() error { return s.srv.CheckInvariants() }

// fill places n tasks straight through the placer, for the workloads and
// micro-benchmarks that start from a half-full inventory.
func (s *stack) fill(n int, seed int64) error {
	tasks := genTasks(seed, n, len(s.apps), 0)
	const chunk = 250
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		names := make([]string, hi-lo)
		for i, tk := range tasks[lo:hi] {
			names[i] = s.apps[tk.app]
		}
		outs, err := s.srv.Placer().SubmitBatch(names)
		if err != nil {
			return err
		}
		for _, o := range outs {
			if o.Err != nil || o.Placement.Status != serve.StatusPlaced {
				return fmt.Errorf("fill: task not placed: %v", o.Err)
			}
		}
	}
	return nil
}

// serveTCP puts the stack's handler behind a real loopback listener, as
// tracond does, and returns its base URL and a stop function.
func (s *stack) serveTCP() (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: s.handler}
	done := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // returns ErrServerClosed on Close
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close(); <-done }, nil
}

// handlerRoundTrip enters the stack at Handler().ServeHTTP.
func (s *stack) handlerRoundTrip() roundTrip {
	return func(method, path, reqID string, body []byte) (int, []byte, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, path, rd)
		if reqID != "" {
			req.Header.Set(requestIDHeader, reqID)
		}
		w := httptest.NewRecorder()
		s.handler.ServeHTTP(w, req)
		return w.Code, w.Body.Bytes(), nil
	}
}

func toPlacement(p *serve.Placement) placement {
	return placement{ID: p.ID, Status: p.Status, PredictedRuntime: p.PredictedRuntime, PredictedIOPS: p.PredictedIOPS}
}

// placerAPI enters the stack at the Placer's methods. The handler's other
// work on a completion (feeding the drift detector) is not the placer's and
// is left out, as it is from the placer rung's time. When the stack
// journals, each call is followed by a durable span: the time that very call
// spent inside the journal's filesystem (the counting wrapper times Write and
// Sync), so the durable rung is nested in the placer rung it is subtracted
// from and the two cannot drift apart.
func (s *stack) placerAPI(rec *recorder, rung string) *api {
	p := s.srv.Placer()
	journalled := func(kind string, op int) {
		if s.fs != nil {
			d, n := s.fs.drainBusy()
			rec.add("durable", kind, op, d, n)
		}
	}
	if s.fs != nil {
		s.fs.drainBusy() // set-up's writes are not an op's
	}
	return &api{
		submit: func(op int, app, reqID string) (out placement, err error) {
			var r *serve.Placement
			rec.do(rung, "submit", op, func() { r, err = p.SubmitKeyed(app, reqID, reqID) })
			journalled("submit", op)
			if err != nil {
				return out, err
			}
			return toPlacement(r), nil
		},
		batch: func(op int, apps []string) ([]placement, error) {
			var (
				outs []serve.BatchOutcome
				err  error
			)
			rec.do(rung, "batch", op, func() { outs, err = p.SubmitBatchKeyed(apps, nil, nil) })
			journalled("batch", op)
			if err != nil {
				return nil, err
			}
			ps := make([]placement, len(outs))
			for i, o := range outs {
				if o.Err != nil {
					return nil, o.Err
				}
				ps[i] = toPlacement(o.Placement)
			}
			return ps, nil
		},
		get: func(op int, id string) (out placement, err error) {
			var (
				r  *serve.Placement
				ok bool
			)
			rec.do(rung, "get", op, func() { r, ok = p.Get(id) })
			if !ok {
				return out, fmt.Errorf("placement %s unknown", id)
			}
			return toPlacement(r), nil
		},
		complete: func(op int, id string, _, _ float64) (err error) {
			rec.do(rung, "complete", op, func() { _, err = p.Complete(id) })
			journalled("complete", op)
			return err
		},
	}
}

// census rebuilds the scheduler's input from the inventory, the way the
// placer's own plan step does: free slots by neighbour category, and the
// schedulable capacity.
func (s *stack) census() (sched.Counts, int) {
	counts := sched.Counts{}
	available := 0
	for _, m := range s.srv.Placer().Machines() {
		if m.State != serve.MachineUp {
			continue
		}
		available += serve.SlotsPerMachine
		a, b := m.Slots[0], m.Slots[1]
		switch {
		case a.State == "free" && b.State == "free":
			counts[sched.EmptyCategory] += 2
		case a.State == "free":
			counts[b.App]++
		case b.State == "free":
			counts[a.App]++
		}
	}
	return counts, available
}

// schedAPI measures the sched rung (and, inside it, predict): before a
// submit reaches the placer it runs, timed, the scheduling pass the placer
// is about to run for it: the head of the backlog including the new tasks,
// up to the policy's batch size, over the current census. Nothing is timed
// when the placer would not schedule (no free slot). The op itself then
// goes through the placer untimed, to move the state on.
func (s *stack) schedAPI(rec *recorder, w workload) (*api, error) {
	inner := s.placerAPI(newRecorder(false), "placer")
	placer := s.srv.Placer()
	view := s.srv.ModelSet().View()
	pred := &timedPredictor{Predictor: view.Pred}
	mine, err := newScheduler(w.policy, w.queueLen, pred)
	if err != nil {
		return nil, err
	}
	pass := func(kind string, op int, apps []string) error {
		counts, available := s.census()
		if counts.Total() == 0 {
			// A full cluster schedules nothing on a submit; the op still
			// counts, at zero, towards the rung's median.
			rec.add("sched", kind, op, 0, 0)
			rec.add("predict", kind, op, 0, 0)
			return nil
		}
		queued := placer.QueueIDs()
		n := min(view.Scheduler.BatchSize(), len(queued)+len(apps))
		batch := make([]sched.Task, 0, n)
		for _, id := range queued {
			if len(batch) == n {
				break
			}
			if r, ok := placer.Get(id); ok {
				batch = append(batch, sched.Task{ID: int64(len(batch)), App: r.App})
			}
		}
		for _, a := range apps {
			if len(batch) == n {
				break
			}
			batch = append(batch, sched.Task{ID: int64(len(batch)), App: a})
		}
		load := sched.Load{TotalSlots: available, Queued: len(queued) + len(apps)}
		var err error
		rec.do("sched", kind, op, func() { _, err = view.Scheduler.Schedule(batch, counts.Clone(), load) })
		if err != nil {
			return err
		}
		// The same pass once more over the timing predictor, for the time
		// and number of predictor calls inside it.
		if _, err := mine.Schedule(batch, counts.Clone(), load); err != nil {
			return err
		}
		d, c := pred.drain()
		rec.add("predict", kind, op, d, c)
		return nil
	}
	return &api{
		submit: func(op int, app, reqID string) (placement, error) {
			if err := pass("submit", op, []string{app}); err != nil {
				return placement{}, err
			}
			return inner.submit(op, app, reqID)
		},
		batch: func(op int, apps []string) ([]placement, error) {
			if err := pass("batch", op, apps); err != nil {
				return nil, err
			}
			return inner.batch(op, apps)
		},
		get:      inner.get,
		complete: inner.complete,
	}, nil
}

// openJournal opens a data directory under an fsync policy on a counting
// wrapper around under. walMax is the segment size that asks for a snapshot
// (0: never).
func openJournal(dir, fsync string, under durable.FS, walMax int64) (*durable.Manager, *countingFS, error) {
	policy, err := durable.ParseFsyncPolicy(fsync)
	if err != nil {
		return nil, nil, err
	}
	if walMax == 0 {
		walMax = -1
	}
	cfs := &countingFS{FS: under}
	mgr, err := durable.Open(dir, durable.Options{Fsync: policy, Now: time.Now, FS: cfs, WALMaxBytes: walMax})
	return mgr, cfs, err
}

// snapshotIfSignalled does what tracond's snapshot loop does when the live
// segment outgrows its bound; the replay is single-threaded, so it asks
// between ops.
func (s *stack) snapshotIfSignalled() error {
	if s.mgr == nil {
		return nil
	}
	select {
	case <-s.mgr.SnapshotSignal():
		return s.srv.SnapshotNow()
	default:
		return nil
	}
}

// ---- micro-benchmarks: one or more numbers per package ----

// micro collects the per-layer numbers that are the same whatever workload
// the traced pass was asked for.
type micro struct {
	res    *result
	lib    *model.Library
	dir    string
	errors int // non-200 answers at the handler rung
}

// perOp runs fn n times and returns the mean ns per call.
func perOp(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(n)
}

// eachUS runs fn n times and returns every call's duration in µs.
func eachUS(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = float64(time.Since(t0)) / 1e3
	}
	return out
}

// allocsPer returns heap allocations per call of fn over n calls. The
// bench is otherwise idle while it runs, so the process-wide counter is
// fn's.
func allocsPer(n int, fn func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func (m *micro) add(name, unit string, v float64, n int) { m.res.add(name, unit, v, n) }

func (m *micro) modelLayer(trainTook time.Duration) error {
	m.add("model.train_s", "s", trainTook.Seconds(), 1)
	var buf bytes.Buffer
	if err := m.lib.Save(&buf); err != nil {
		return err
	}
	var loadErr error
	loads := eachUS(20, func(int) {
		if _, err := model.LoadLibrary(bytes.NewReader(buf.Bytes())); err != nil {
			loadErr = err
		}
	})
	if loadErr != nil {
		return loadErr
	}
	m.add("model.load_ms", "ms", median(loads)/1e3, len(loads))

	apps := m.lib.Apps()
	i := 0
	const n = 200000
	m.add("model.predict_ns", "ns", perOp(n, func() {
		_, _ = m.lib.PredictRuntime(apps[i%len(apps)], apps[(i/len(apps))%len(apps)]) // known pair: cannot fail
		i++
	}), n)
	return nil
}

func (m *micro) cacheLayer() error {
	cp, err := serve.NewCachingPredictor(m.lib, serve.NewPredCache(0), 1)
	if err != nil {
		return err
	}
	apps := m.lib.Apps()
	for _, a := range apps {
		for _, b := range apps {
			if _, err := cp.PredictRuntime(a, b); err != nil {
				return err
			}
		}
	}
	i := 0
	const n = 500000
	m.add("serve.cache.hit_ns", "ns", perOp(n, func() {
		_, _ = cp.PredictRuntime(apps[i%len(apps)], apps[(i/len(apps))%len(apps)]) // warmed above
		i++
	}), n)
	return nil
}

func (m *micro) obsLayer(live *obs.Registry) {
	reg := obs.NewRegistry()
	const n = 1000000
	m.add("obs.counter_lookup_ns", "ns", perOp(n, func() { reg.Counter("serve.tasks_submitted").Inc() }), n)
	m.add("obs.labeled_counter_ns", "ns", perOp(n/4, func() {
		reg.Counter(obs.Labeled("serve.http_requests", "code", "2xx", "route", "/v1/tasks")).Inc()
	}), n/4)
	h := reg.Histogram("serve.request_seconds", obs.DefaultLatencyBuckets())
	m.add("obs.histogram_observe_ns", "ns", perOp(n, func() { h.Observe(0.0002) }), n)
	tr := obs.NewTracer("bench", "mios", 8, 0)
	ev := obs.TraceEvent{Kind: "admit", Serve: &obs.ServeInfo{Req: "r", Task: "t-1", App: "a", Machine: -1, Slot: -1}}
	m.add("obs.tracer_append_ns", "ns", perOp(n, func() { tr.Append(ev) }), n)
	slo := obs.NewSLOTracker(obs.SLOConfig{Now: time.Now})
	m.add("obs.slo_record_ns", "ns", perOp(n, func() { slo.Record(0.0002, false) }), n)
	// Exposition is measured on a registry that has served traffic: the
	// route, cache and gauge series a scrape of the daemon would find.
	snaps := eachUS(200, func(int) { _ = live.Snapshot() })
	m.add("obs.snapshot_us", "us", median(snaps), len(snaps))
	writes := eachUS(200, func(int) { _ = obs.WritePrometheus(io.Discard, live.Snapshot()) })
	m.add("obs.prometheus_write_us", "us", median(writes), len(writes))
}

func (m *micro) admissionLayer() {
	a := serve.NewAdmission(0, 64)
	const n = 1000000
	m.add("serve.admission.acquire_ns", "ns", perOp(n, func() {
		if a.TryAcquire() {
			a.Release()
		}
	}), n)
}

func (m *micro) swapLayer() error {
	s, err := newStack(m.lib, stackConfig{machines: 8, policy: "mios"})
	if err != nil {
		return err
	}
	bg := make([]float64, model.NumFeatures)
	noise := genTasks(7, 1024, 1, 0)
	i := 0
	const n = 200000
	m.add("serve.swap.observe_ns", "ns", perOp(n, func() {
		s.srv.Swapper().ObserveCompletion(s.apps[i%len(s.apps)], bg, 100, serve.Observation{Runtime: 100 * noise[i%len(noise)].noise, IOPS: 50})
		i++
	}), n)
	return nil
}

// coalesceLayer is the one layer no end-to-end workload reaches: two
// connections cannot form groups worth batching. Two goroutines submit
// through a 1 ms window here so the layer at least has a number.
func (m *micro) coalesceLayer() error {
	s, err := newStack(m.lib, stackConfig{machines: 64, policy: "mibs", queueLen: 8, coalesce: time.Millisecond})
	if err != nil {
		return err
	}
	const per = 150
	var wg sync.WaitGroup
	lat := make([][]float64, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				t0 := time.Now()
				p, err := s.srv.Coalescer().SubmitKeyed(s.apps[(c+i)%len(s.apps)], "", "")
				lat[c] = append(lat[c], float64(time.Since(t0))/1e3)
				if err == nil {
					_, err = s.srv.Placer().Complete(p.ID)
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	all := append(lat[0], lat[1]...)
	m.add("serve.coalesce.submit_us", "us", median(all), len(all))
	for _, p := range s.srv.Registry().Snapshot() {
		if p.Name == "serve.batch_size" && p.Hist != nil && p.Hist.N > 0 {
			m.add("serve.coalesce.mean_batch", "tasks", p.Hist.Mean(), int(p.Hist.N))
			return nil
		}
	}
	return fmt.Errorf("coalescer recorded no batch")
}

// cycle runs n submit → get → complete cycles through a, whose recorder
// keeps the timings. The stack must have a free slot.
func cycle(a *api, apps []string, n int) error {
	for i := 0; i < n; i++ {
		p, err := a.submit(i, apps[i%len(apps)], "")
		if err != nil {
			return err
		}
		if _, err := a.get(i, p.ID); err != nil {
			return err
		}
		if err := a.complete(i, p.ID, p.PredictedRuntime, p.PredictedIOPS); err != nil {
			return err
		}
	}
	return nil
}

// placerLayer times the placer at three inventory sizes, half full, and
// leaves the 12 500-machine stack for the sched and snapshot numbers.
func (m *micro) placerLayer() (*stack, error) {
	var big *stack
	for _, size := range []struct {
		machines, cycles int
		tag              string
	}{{8, 4000, "m8"}, {1000, 1500, "m1000"}, {12500, 400, "m12500"}} {
		s, err := newStack(m.lib, stackConfig{machines: size.machines, policy: "mios"})
		if err != nil {
			return nil, err
		}
		if err := s.fill(size.machines, 11); err != nil {
			return nil, err
		}
		rec := newRecorder(true)
		if err := cycle(s.placerAPI(rec, "placer"), s.apps, size.cycles); err != nil {
			return nil, err
		}
		us, n := medianUS(rec.spans, "placer", "submit")
		m.add("serve.placer.submit_us."+size.tag, "us", us, n)
		if size.tag != "m1000" {
			us, n = medianUS(rec.spans, "placer", "complete")
			m.add("serve.placer.complete_us."+size.tag, "us", us, n)
		}
		if size.tag == "m8" {
			us, n = medianUS(rec.spans, "placer", "get")
			m.add("serve.placer.get_ns", "ns", us*1e3, n)
			p := s.srv.Placer()
			// Per submit → complete pair: the completion keeps a slot free
			// for the next submit, so every submit takes the placed path.
			m.add("serve.placer.submit_allocs", "allocs", allocsPer(2000, func(i int) {
				if r, err := p.SubmitKeyed(s.apps[i%len(s.apps)], "", ""); err == nil {
					_, _ = p.Complete(r.ID) // a failure shows in checkInvariants below
				}
			}), 2000)
		}
		if err := s.checkInvariants(); err != nil {
			return nil, err
		}
		big = s
	}
	snaps := eachUS(200, func(int) { _ = big.srv.Placer().Snapshot() })
	m.add("serve.placer.snapshot_us.m12500", "us", median(snaps), len(snaps))
	return big, nil
}

// batchLayer times the placer under mixed-batch's standing backlog: a
// batch of 8 arriving on a full cluster, and the completion that frees a
// slot and so drains the queue head through a scheduling pass.
func (m *micro) batchLayer() error {
	w, _ := workloadByName("mixed-batch")
	s, err := newStack(m.lib, stackConfig{machines: w.machines, policy: w.policy, queueLen: w.queueLen})
	if err != nil {
		return err
	}
	rec := newRecorder(true)
	tasks := genTasks(13, 300*batchSize, len(s.apps), 0)
	if err := replay(w, s.placerAPI(rec, "placer"), s.apps, tasks, ""); err != nil {
		return err
	}
	us, n := medianUS(rec.spans, "placer", "batch")
	m.add("serve.placer.batch8_us.m64", "us", us, n)
	us, n = medianUS(rec.spans, "placer", "complete")
	m.add("serve.placer.drain_complete_us.m64", "us", us, n)
	return s.checkInvariants()
}

// httpLayer is serve.http's own time per call: the handler rung minus the
// placer rung on identical fresh 8-machine stacks (64 machines and the
// standing backlog for the batch call).
func (m *micro) httpLayer() (*stack, error) {
	medians := func(rung string, batch bool) (map[string]float64, *stack, error) {
		cfg := stackConfig{machines: 8, policy: "mios"}
		if batch {
			cfg = stackConfig{machines: 64, policy: "mibs", queueLen: 8}
		}
		s, err := newStack(m.lib, cfg)
		if err != nil {
			return nil, nil, err
		}
		rec := newRecorder(true)
		a := s.placerAPI(rec, rung)
		if rung == "handler" {
			a = httpAPI(rec, rung, s.handlerRoundTrip(), &m.errors)
		}
		if batch {
			w, _ := workloadByName("mixed-batch")
			err = replay(w, a, s.apps, genTasks(17, 300*batchSize, len(s.apps), 0), "")
		} else {
			err = cycle(a, s.apps, 3000)
		}
		if err != nil {
			return nil, nil, err
		}
		out := map[string]float64{}
		for _, kind := range []string{"submit", "get", "complete", "batch"} {
			out[kind], _ = medianUS(rec.spans, rung, kind)
		}
		return out, s, s.checkInvariants()
	}
	h, live, err := medians("handler", false)
	if err != nil {
		return nil, err
	}
	p, _, err := medians("placer", false)
	if err != nil {
		return nil, err
	}
	m.add("serve.http.submit_self_us", "us", h["submit"]-p["submit"], 3000)
	m.add("serve.http.complete_self_us", "us", h["complete"]-p["complete"], 3000)
	m.add("serve.http.get_self_us", "us", h["get"]-p["get"], 3000)
	hb, _, err := medians("handler", true)
	if err != nil {
		return nil, err
	}
	pb, _, err := medians("placer", true)
	if err != nil {
		return nil, err
	}
	m.add("serve.http.batch8_self_us", "us", hb["batch"]-pb["batch"], 300)

	rt := live.handlerRoundTrip()
	scrapes := eachUS(50, func(int) {
		if code, _, _ := rt("GET", "/metrics?format=prometheus", "", nil); code != http.StatusOK {
			m.errors++
		}
	})
	m.add("serve.http.scrape_ms", "ms", median(scrapes)/1e3, len(scrapes))
	// Per submit → complete pair through the handler, including the bench's
	// own requests and response recorders.
	pairs := httpAPI(newRecorder(false), "handler", rt, &m.errors)
	var pairErr error
	m.add("serve.http.submit_allocs", "allocs", allocsPer(1000, func(i int) {
		p, err := pairs.submit(i, live.apps[i%len(live.apps)], "")
		if err == nil {
			err = pairs.complete(i, p.ID, p.PredictedRuntime, p.PredictedIOPS)
		}
		if err != nil {
			pairErr = err
		}
	}), 1000)
	if pairErr != nil {
		return nil, pairErr
	}
	if cp, ok := live.srv.ModelSet().View().Pred.(*serve.CachingPredictor); ok {
		st := cp.Cache().Stats()
		m.add("serve.cache.hit_ratio", "share", float64(st.Hits)/float64(max(st.Hits+st.Misses, 1)), int(st.Hits+st.Misses))
	} else {
		return nil, fmt.Errorf("served predictor is not the caching predictor")
	}
	return live, nil
}

// obsTax is ROADMAP 1(e)'s question put as a number: the handler-rung time
// of one submit → complete cycle with the daemon's default instrumentation
// (span ring on, text logger) against the same with both off, as a share of
// the default. Chunks alternate between the two stacks so that drift in the
// host's speed lands on both.
func (m *micro) obsTax() error {
	on, err := newStack(m.lib, stackConfig{machines: 8, policy: "mios"})
	if err != nil {
		return err
	}
	off, err := newStack(m.lib, stackConfig{machines: 8, policy: "mios", obsOff: true})
	if err != nil {
		return err
	}
	recOn, recOff := newRecorder(true), newRecorder(true)
	aOn := httpAPI(recOn, "handler", on.handlerRoundTrip(), &m.errors)
	aOff := httpAPI(recOff, "handler", off.handlerRoundTrip(), &m.errors)
	for chunk := 0; chunk < 20; chunk++ {
		if err := cycle(aOn, on.apps, 250); err != nil {
			return err
		}
		if err := cycle(aOff, off.apps, 250); err != nil {
			return err
		}
	}
	cost := func(spans []span) float64 {
		s, _ := medianUS(spans, "handler", "submit")
		c, _ := medianUS(spans, "handler", "complete")
		return s + c
	}
	m.add("serve.http.obs_tax_share", "share", (cost(recOn.spans)-cost(recOff.spans))/cost(recOn.spans), 5000)
	return nil
}

// schedLayer times one pass of each policy over the census of the
// half-full 12 500-machine inventory, and the simulator's free pool.
func (m *micro) schedLayer(big *stack) error {
	counts, available := big.census()
	view := big.srv.ModelSet().View()
	const n = 2000
	for _, pol := range []struct {
		tag, policy string
		q, batch    int
	}{{"fifo", "fifo", 1, 1}, {"mios", "mios", 1, 1}, {"mibs8", "mibs", 8, 8}, {"mix8", "mix", 8, 8}} {
		s, err := newScheduler(pol.policy, pol.q, view.Pred)
		if err != nil {
			return err
		}
		batch := make([]sched.Task, pol.batch)
		clones := make([]sched.Counts, n)
		for i := range clones {
			clones[i] = counts.Clone()
		}
		var schedErr error
		us := eachUS(n, func(i int) {
			for j := range batch {
				batch[j] = sched.Task{ID: int64(j), App: big.apps[(i+j)%len(big.apps)]}
			}
			if _, err := s.Schedule(batch, clones[i], sched.Load{TotalSlots: available, Queued: pol.batch}); err != nil {
				schedErr = err
			}
		})
		if schedErr != nil {
			return schedErr
		}
		m.add("sched.schedule_us."+pol.tag, "us", median(us), n)
	}

	pool := sched.NewFreePool()
	for mi := 0; mi < 12500; mi++ {
		pool.SetFree(mi, 0, sched.EmptyCategory)
		pool.SetFree(mi, 1, sched.EmptyCategory)
	}
	var poolErr error
	const cycles = 200000
	m.add("sched.pool.cycle_ns", "ns", perOp(cycles, func() {
		mi, si, err := pool.Pop(sched.AnyCategory)
		if err != nil {
			poolErr = err
			return
		}
		pool.SetFree(mi, si, sched.EmptyCategory)
	}), cycles)
	return poolErr
}

func taskEvents(i int, app string, bg []float64) [3]durable.Event {
	id := fmt.Sprintf("t-%d", i+1)
	req := fmt.Sprintf("b1-%d", i)
	return [3]durable.Event{
		{Kind: durable.EvAdmit, Task: id, App: app, Req: req, Dedup: req, Machine: -1, Slot: -1},
		{Kind: durable.EvPlace, Task: id, Machine: i % 8, Slot: i % 2, Neighbour: app, PredRT: 123.456, PredIOPS: 78.9, Gen: 1, BG: bg},
		{Kind: durable.EvComplete, Task: id, Machine: i % 8, Slot: i % 2},
	}
}

// durableLayer times the journal by itself: a task's three commit points
// under each fsync policy on the real filesystem, the frame encoder on an
// in-memory one, snapshots of a small busy and a large state, and recovery.
func (m *micro) durableLayer(big *stack) error {
	bg := make([]float64, model.NumFeatures)
	apps := m.lib.Apps()
	for _, pol := range []struct {
		fsync string
		tasks int
	}{{"always", 150}, {"interval", 3000}, {"never", 3000}} {
		mgr, cfs, err := openJournal(filepath.Join(m.dir, "append-"+pol.fsync), pol.fsync, durable.OSFS{}, 0)
		if err != nil {
			return err
		}
		var appendErr error
		us := eachUS(3*pol.tasks, func(i int) {
			if _, err := mgr.Append(taskEvents(i/3, apps[i/3%len(apps)], bg)[i%3]); err != nil {
				appendErr = err
			}
		})
		if err := mgr.Close(); err != nil {
			return err
		}
		if appendErr != nil {
			return appendErr
		}
		m.add("durable.append_us."+pol.fsync, "us", median(us), len(us))
		if pol.fsync == "always" {
			c := cfs.counts()
			syncs := make([]float64, len(c.syncTimes))
			for i, d := range c.syncTimes {
				syncs[i] = float64(d) / 1e3
			}
			s := sortedCopy(syncs)
			m.add("durable.fs.sync_us_p50", "us", quantile(s, 0.5), len(s))
			m.add("durable.fs.sync_us_p99", "us", quantile(s, topPercentile(len(s))), len(s))
			m.add("durable.fs.syncs_per_task", "syncs", float64(c.syncs)/float64(pol.tasks), pol.tasks)
			m.add("durable.fs.write_bytes_per_task", "bytes", float64(c.bytes)/float64(pol.tasks), pol.tasks)
		}
	}

	mgr, _, err := openJournal("mem", "never", durable.NewMemFS(), 0)
	if err != nil {
		return err
	}
	const n = 20000
	evs := make([]durable.Event, n)
	for i := range evs {
		evs[i] = taskEvents(i/3, apps[i/3%len(apps)], bg)[i%3]
	}
	var appendErr error
	i := 0
	ns := perOp(n, func() {
		if _, err := mgr.Append(evs[i]); err != nil {
			appendErr = err
		}
		i++
	})
	if appendErr != nil {
		return appendErr
	}
	m.add("durable.encode_ns_event", "ns", ns, n)
	m.add("durable.encode_allocs_event", "allocs", allocsPer(n, func(i int) { _, _ = mgr.Append(evs[i]) }), n)
	_ = mgr.Close()

	// Snapshots: export the placer's state and write it, which is what
	// Server.SnapshotNow does before it rotates the segment.
	snapshot := func(s *stack, name string, times int) {
		ms := eachUS(times, func(i int) {
			if err := durable.WriteSnapshotFile(filepath.Join(m.dir, fmt.Sprintf("%s-%d.snap", name, i)), s.srv.Placer().ExportState()); err != nil {
				appendErr = err
			}
		})
		m.add("durable.snapshot_ms."+name, "ms", median(ms)/1e3, times)
	}
	small, err := newStack(m.lib, stackConfig{machines: 8, policy: "mios"})
	if err != nil {
		return err
	}
	if err := cycle(small.placerAPI(newRecorder(false), "placer"), small.apps, 20000); err != nil {
		return err
	}
	snapshot(small, "m8_20k", 5)
	snapshot(big, "m12500", 5)
	if appendErr != nil {
		return appendErr
	}

	// Recovery: journal a run, close, and time what a boot does with the
	// directory: open and read the journal, rebuild the placer from it.
	dir := filepath.Join(m.dir, "recover")
	first, err := newStack(m.lib, stackConfig{machines: 8, policy: "mios", fsync: "never", dir: dir})
	if err != nil {
		return err
	}
	if err := cycle(first.placerAPI(newRecorder(false), "placer"), first.apps, 2000); err != nil {
		return err
	}
	events := first.mgr.LastSeq()
	first.close()
	t0 := time.Now()
	second, err := newStack(m.lib, stackConfig{machines: 8, policy: "mios", fsync: "never", dir: dir})
	if err != nil {
		return err
	}
	took := time.Since(t0)
	second.close()
	m.add("durable.recover_ms_per_kevent", "ms", took.Seconds()*1e3/(float64(events)/1e3), int(events))
	return nil
}

// simLayer is a small fixed simulation (the Fig 11 cluster for two
// simulated hours), once plain and once with the timing decorators.
func (m *micro) simLayer() error {
	took, err := buildTable()
	if err != nil {
		return err
	}
	m.add("sim.table_s", "s", took.Seconds(), 1)
	sys, err := newSimSystem()
	if err != nil {
		return err
	}
	w, _ := workloadByName("sim-fig11")
	const hours = 2
	tasks := simArrivals(1, simLambda, hours)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fp, wall, err := sys.run(w, tasks, hours)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	m.add("sim.events_per_s", "1/s", float64(fp.Submitted+fp.Completed)/wall.Seconds(), fp.Submitted+fp.Completed)
	m.add("sim.allocs_per_task", "allocs", float64(m1.Mallocs-m0.Mallocs)/float64(len(tasks)), len(tasks))
	tr, err := sys.runTraced(w, tasks, hours, newRecorder(true))
	if err != nil {
		return err
	}
	if tr.fp != fp {
		return fmt.Errorf("timing decorators changed the simulation: %s, plain %s", tr.fp, fp)
	}
	m.add("sim.self_share", "share", float64(tr.wall-tr.sched)/float64(tr.wall), tr.schedCalls)
	m.add("sched.calls_per_task", "calls", float64(tr.schedCalls)/float64(len(tasks)), len(tasks))
	return nil
}

// trained is the library the traced pass trained once and builds every
// stack over.
type trained struct{ lib *model.Library }

func (t *trained) apps() []string { return t.lib.Apps() }

func (t *trained) stack(cfg stackConfig) (*stack, error) { return newStack(t.lib, cfg) }

// runMicro produces every per-layer number that does not depend on the
// workload asked for.
func runMicro(res *result, dir string) (*trained, error) {
	lib, trainTook, err := trainLibrary()
	if err != nil {
		return nil, err
	}
	m := &micro{res: res, lib: lib, dir: dir}
	if err := m.modelLayer(trainTook); err != nil {
		return nil, err
	}
	if err := m.cacheLayer(); err != nil {
		return nil, err
	}
	m.admissionLayer()
	if err := m.swapLayer(); err != nil {
		return nil, err
	}
	if err := m.coalesceLayer(); err != nil {
		return nil, err
	}
	live, err := m.httpLayer()
	if err != nil {
		return nil, err
	}
	m.obsLayer(live.srv.Registry())
	if err := m.obsTax(); err != nil {
		return nil, err
	}
	big, err := m.placerLayer()
	if err != nil {
		return nil, err
	}
	if err := m.batchLayer(); err != nil {
		return nil, err
	}
	if err := m.schedLayer(big); err != nil {
		return nil, err
	}
	if err := m.durableLayer(big); err != nil {
		return nil, err
	}
	if err := m.simLayer(); err != nil {
		return nil, err
	}
	m.add("serve.http.errors", "count", float64(m.errors), 1)
	return &trained{lib: lib}, nil
}
