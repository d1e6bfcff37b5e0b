// Package experiments reproduces every table and figure of the TRACON
// paper's evaluation (Sec. 4). Each experiment is a pure function of a
// shared Env (the expensive artifacts: profiled training sets, trained
// model libraries, the measured interference table) and returns a
// structured result with a text renderer, so the same code backs the
// traconbench CLI, the benchmark harness and EXPERIMENTS.md.
package experiments

import (
	"math"
	"math/rand"

	"tracon/internal/fault"
	"tracon/internal/model"
	"tracon/internal/par"
	"tracon/internal/sched"
	"tracon/internal/sim"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

// Env holds the shared expensive artifacts of the evaluation.
type Env struct {
	Host *xen.Host
	TB   *xen.Testbed

	Benchmarks  []workload.Benchmark
	Backgrounds []xen.AppSpec

	TrainingSets map[string]*model.TrainingSet
	Solo         map[string]xen.SoloProfile

	// Libraries holds one trained library per model family.
	Libraries map[model.Kind]*model.Library

	Table  *sim.InterferenceTable
	Oracle *model.Oracle

	Seed int64

	// workers is the width the Env was built with; SpotCheck10k's groups
	// fan out over it.
	workers int
	// scorers holds one shared scorer per trained family and objective.
	scorers map[scorerKey]*sched.Scorer

	// Observe, when non-nil, supplies an observer for every simulation the
	// experiments launch (metrics collection, invariant auditing, event
	// tracing). It is called once per engine run, possibly from concurrent
	// workers, and must key any shared state by its arguments — never by
	// call order — so that each run records into its own collectors and
	// observed artifacts stay identical across worker counts.
	Observe ObserverFactory

	// Faults, when non-nil, supplies a fault-injection plan for every
	// simulation the experiments launch. Same contract as Observe: keyed by
	// arguments, never call order, so fault-injected sweeps stay identical
	// across worker counts. Return nil to leave a given run fault-free.
	Faults FaultFactory
}

// ObserverFactory builds the observer for one simulation run. kind names
// the call site ("static", "dynamic", "spotcheck", "storage-<device>");
// together with the scheduler name, cluster size and task stream it
// identifies the run deterministically (see simobs.RunLabel).
type ObserverFactory func(kind, scheduler string, machines int, tasks []sched.Task) sim.Observer

// FaultFactory builds the fault-injection plan for one simulation run;
// arguments as in ObserverFactory. Typically it filters one loaded plan to
// the run's cluster size via Plan.ForMachines.
type FaultFactory func(kind, scheduler string, machines int, tasks []sched.Task) *fault.Plan

// envLibraryKinds are the model families every Env trains, in build order.
var envLibraryKinds = []model.Kind{model.WMM, model.LM, model.NLM}

// NewEnvParallel builds the Env with up to workers concurrent goroutines:
// the eight per-benchmark profiling runs fan out first (model.ProfileAll),
// then the three model-family trainings and the interference-table solves.
// workers <= 1 is the sequential reference build. The same width bounds
// the fan-out inside SpotCheck10k's manager hierarchy.
//
// Parallel construction is byte-identical to sequential construction for
// the same seed: testbed measurement noise is key-addressed (derived from
// the seed and the measurement's name, never from call order), every
// concurrent stage writes into its own index of a pre-sized slice, and the
// Env's maps are assembled on the calling goroutine in benchmark order.
// The determinism tests assert this equivalence.
func NewEnvParallel(seed int64, workers int) (*Env, error) {
	hostCfg := xen.DefaultHost()
	host, err := xen.NewHost(hostCfg)
	if err != nil {
		return nil, err
	}
	tb := xen.NewTestbed(host, 3, 0.05, seed)

	e := &Env{
		Host:         host,
		TB:           tb,
		Benchmarks:   workload.Benchmarks(),
		TrainingSets: map[string]*model.TrainingSet{},
		Solo:         map[string]xen.SoloProfile{},
		Libraries:    map[model.Kind]*model.Library{},
		Seed:         seed,
		workers:      workers,
		scorers:      map[scorerKey]*sched.Scorer{},
	}
	for _, w := range workload.ProfilingWorkloads(hostCfg.Disk) {
		e.Backgrounds = append(e.Backgrounds, w.Spec)
	}
	specs := make([]xen.AppSpec, len(e.Benchmarks))
	for i, b := range e.Benchmarks {
		specs[i] = b.Spec
	}

	// Stage 1: per-benchmark profiling (the 8 × 125 measurement sweep plus
	// solo runs).
	sets, solos, err := model.ProfileAll(tb, specs, e.Backgrounds, workers)
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		e.TrainingSets[spec.Name] = sets[i]
		e.Solo[spec.Name] = solos[i]
	}

	// Stage 2: once the profiles land, the three model-family trainings
	// are independent — one job per family, each library owned by exactly
	// one job while it trains.
	libs := make([]*model.Library, len(envLibraryKinds))
	err = par.ForEach(workers, len(envLibraryKinds), func(i int) error {
		lib, err := model.TrainLibrary(envLibraryKinds[i], sets, solos, 1)
		libs[i] = lib
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, k := range envLibraryKinds {
		e.Libraries[k] = libs[i]
		for _, obj := range []sched.Objective{sched.MinRuntime, sched.MaxIOPS} {
			e.scorers[scorerKey{k, obj}] = sched.NewScorer(libs[i], obj)
		}
	}

	// Stage 3: the interference table's n solo + n² pair solves fan out
	// inside sim, again bounded by workers.
	e.Table, err = sim.BuildInterferenceTableParallel(host, specs, workers)
	if err != nil {
		return nil, err
	}
	e.Oracle = model.NewOracle(tb, specs)
	return e, nil
}

// batchTasks numbers a drawn static batch as tasks, all present at time
// zero: batchTasks(workload.NewMixer(seed).Batch(mix, n)) draws from a mix,
// UniformBatch uniformly over the eight benchmarks.
func batchTasks(batch []xen.AppSpec) []sched.Task {
	tasks := make([]sched.Task, len(batch))
	for i, spec := range batch {
		tasks[i] = sched.Task{ID: int64(i), App: workload.BaseName(spec.Name)}
	}
	return tasks
}

// poissonTasks draws Poisson arrivals at lambda tasks/minute over horizon
// seconds, app types from the mix.
func poissonTasks(mix workload.IOIntensity, lambda, horizon float64, seed int64) []sched.Task {
	rng := rand.New(rand.NewSource(seed))
	times := workload.Arrivals(rng, lambda, horizon)
	mixer := workload.NewMixer(seed + 7919)
	tasks := make([]sched.Task, len(times))
	for i, tm := range times {
		tasks[i] = sched.Task{ID: int64(i), App: workload.BaseName(mixer.Draw(mix).Spec.Name), Arrival: tm}
	}
	return tasks
}

// simulate runs one engine over tasks until the horizon (math.Inf(1)
// runs a static batch to completion), with the Env's observer and fault
// hooks attached. kind names the call site for those hooks. Call
// sites that launch the same scheduler on the same task stream more than
// once — fig4 reruns MIBS per model family — must pass distinct kinds, or
// the runs collide on one observability label (see simobs.RunLabel).
// Per-task records are kept only for static batches of up to 200 000
// tasks.
func (e *Env) simulate(kind string, s sched.Scheduler, machines int, tasks []sched.Task, horizon float64) (*sim.Results, error) {
	cfg := sim.Config{
		Machines:    machines,
		Scheduler:   s,
		Table:       e.Table,
		DropRecords: !math.IsInf(horizon, 1) || len(tasks) > 200000,
	}
	if e.Observe != nil {
		cfg.Observer = e.Observe(kind, s.Name(), machines, tasks)
	}
	if e.Faults != nil {
		cfg.Faults = e.Faults(kind, s.Name(), machines, tasks)
	}
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return eng.Run(tasks, horizon)
}

// scorerKey names one of the Env's shared scorers.
type scorerKey struct {
	kind model.Kind
	obj  sched.Objective
}

// scorerFor returns the Env's scorer over a trained library. Each scorer
// is built once per Env and shared by every simulation: its pair table is
// immutable once built and safe for concurrent use.
func (e *Env) scorerFor(kind model.Kind, obj sched.Objective) *sched.Scorer {
	return e.scorers[scorerKey{kind, obj}]
}

// BenchmarkNames returns the application names in Table 3 order.
func (e *Env) BenchmarkNames() []string {
	out := make([]string, len(e.Benchmarks))
	for i, b := range e.Benchmarks {
		out[i] = b.Spec.Name
	}
	return out
}
