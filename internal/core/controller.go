// Package core assembles TRACON, the Task and Resource Allocation CONtrol
// framework of the paper: the interference prediction models (internal/
// model), the interference-aware schedulers (internal/sched) and the task
// and resource monitor (internal/monitor), wired over the virtualized
// testbed (internal/xen) and exercised at scale by the data-center
// simulator (internal/sim).
//
// The Controller is the "manager server" of Fig 2: it profiles incoming
// application types, trains and serves prediction models, constructs
// schedulers around them, and runs the online adaptation loop that rebuilds
// a model when the monitor reports drift.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"tracon/internal/model"
	"tracon/internal/monitor"
	"tracon/internal/sched"
	"tracon/internal/sim"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

// Config configures a Controller bring-up.
type Config struct {
	// Host is the physical-machine model of the application servers.
	Host xen.HostConfig
	// MeasurementRuns is how many repetitions each measurement averages
	// (the paper uses 3).
	MeasurementRuns int
	// MeasurementNoise is the per-run multiplicative noise σ.
	MeasurementNoise float64
	// Seed fixes all stochastic behaviour.
	Seed int64
	// Kind selects the deployed model family (the paper concludes NLM).
	Kind model.Kind
	// Adaptive configures online learning; zero values take the paper's
	// defaults (window 500, retrain every 160).
	Adaptive model.AdaptiveConfig
}

// DefaultConfig returns the paper's deployment: NLM models on the
// calibrated HDD testbed, three averaged runs per measurement.
func DefaultConfig() Config {
	return Config{
		Host:             xen.DefaultHost(),
		MeasurementRuns:  3,
		MeasurementNoise: 0.05,
		Seed:             1,
		Kind:             model.NLM,
		Adaptive:         model.DefaultAdaptive(),
	}
}

// Controller is the TRACON manager.
type Controller struct {
	cfg      Config
	tb       *xen.Testbed
	mon      *monitor.Monitor
	lib      *model.Library
	sets     map[string]*model.TrainingSet
	adaptive map[string]*model.Adaptive
	specs    map[string]xen.AppSpec
	bgs      []xen.AppSpec
	table    *sim.InterferenceTable
}

// New creates an empty Controller (no applications registered yet).
func New(cfg Config) (*Controller, error) {
	if cfg.MeasurementRuns <= 0 {
		cfg.MeasurementRuns = 3
	}
	host, err := xen.NewHost(cfg.Host)
	if err != nil {
		return nil, err
	}
	tb := xen.NewTestbed(host, cfg.MeasurementRuns, cfg.MeasurementNoise, cfg.Seed)
	var bgs []xen.AppSpec
	for _, w := range workload.ProfilingWorkloads(cfg.Host.Disk) {
		bgs = append(bgs, w.Spec)
	}
	return &Controller{
		cfg:      cfg,
		tb:       tb,
		mon:      monitor.New(tb),
		lib:      model.NewLibrary(cfg.Kind),
		sets:     map[string]*model.TrainingSet{},
		adaptive: map[string]*model.Adaptive{},
		specs:    map[string]xen.AppSpec{},
		bgs:      bgs,
	}, nil
}

// Testbed exposes the measurement harness.
func (c *Controller) Testbed() *xen.Testbed { return c.tb }

// Monitor exposes the task and resource monitor.
func (c *Controller) Monitor() *monitor.Monitor { return c.mon }

// Library exposes the trained model library (the prediction module).
func (c *Controller) Library() *model.Library { return c.lib }

// Register profiles a new application type against the synthetic workload
// grid, trains its interference model and starts its adaptation loop —
// the automated new-application pipeline of Sec. 3.1.
func (c *Controller) Register(app xen.AppSpec) error {
	return c.register([]xen.AppSpec{app}, 1)
}

// RegisterBenchmarks registers all eight Table 3 applications, profiling
// them on up to GOMAXPROCS testbed clones at once.
func (c *Controller) RegisterBenchmarks() error {
	var apps []xen.AppSpec
	for _, b := range workload.Benchmarks() {
		apps = append(apps, b.Spec)
	}
	return c.register(apps, runtime.GOMAXPROCS(0))
}

// register profiles apps on up to workers testbed clones, then trains and
// installs each one in order.
func (c *Controller) register(apps []xen.AppSpec, workers int) error {
	for _, app := range apps {
		if err := app.Validate(); err != nil {
			return err
		}
		if _, dup := c.specs[app.Name]; dup {
			return fmt.Errorf("core: application %q already registered", app.Name)
		}
	}
	sets, solos, err := model.ProfileAll(c.tb, apps, c.bgs, workers)
	if err != nil {
		return err
	}
	c.table = nil // invalidate; the app set changes
	for i, app := range apps {
		// The monitor keeps its own running estimate of each app.
		if _, err := c.mon.ObserveSolo(app); err != nil {
			return err
		}
		acfg := c.cfg.Adaptive
		if acfg.Detector == nil {
			acfg.Detector = monitor.NewDetector(monitor.DriftConfig{})
		}
		ad, err := model.NewAdaptive(sets[i], c.cfg.Kind, acfg)
		if err != nil {
			return fmt.Errorf("core: training %s: %w", app.Name, err)
		}
		// The adaptive loop's initial model is the one the library serves.
		if err := c.lib.AddTrained(ad.Model(), sets[i].Features, solos[i]); err != nil {
			return err
		}
		c.specs[app.Name] = app
		c.sets[app.Name] = sets[i]
		c.adaptive[app.Name] = ad
	}
	return nil
}

// Apps returns the registered application names, sorted.
func (c *Controller) Apps() []string {
	out := make([]string, 0, len(c.specs))
	for a := range c.specs {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Spec returns the registered spec for an application.
func (c *Controller) Spec(app string) (xen.AppSpec, error) {
	s, ok := c.specs[app]
	if !ok {
		return xen.AppSpec{}, fmt.Errorf("core: unknown application %q", app)
	}
	return s, nil
}

// TrainingSet returns an application's interference profile.
func (c *Controller) TrainingSet(app string) (*model.TrainingSet, error) {
	ts, ok := c.sets[app]
	if !ok {
		return nil, fmt.Errorf("core: unknown application %q", app)
	}
	return ts, nil
}

// Observe feeds one production observation (target measured against a
// live background workload) into the adaptation loop. When the adaptive
// model rebuilds, the library's served model is replaced — Fig 7's online
// learning.
func (c *Controller) Observe(target string, s model.Sample) (rebuilt bool, err error) {
	ad, ok := c.adaptive[target]
	if !ok {
		return false, fmt.Errorf("core: unknown application %q", target)
	}
	rebuilt, err = ad.Observe(s)
	if err != nil {
		return false, err
	}
	if rebuilt {
		if err := c.lib.Replace(target, ad.Model()); err != nil {
			return true, err
		}
	}
	return rebuilt, nil
}

// Adaptive returns the adaptation state of an application's model.
func (c *Controller) Adaptive(target string) (*model.Adaptive, error) {
	ad, ok := c.adaptive[target]
	if !ok {
		return nil, fmt.Errorf("core: unknown application %q", target)
	}
	return ad, nil
}

// SchedulerSpec names a scheduling policy.
type SchedulerSpec struct {
	// Policy is "fifo", "mios", "mibs" or "mix".
	Policy string
	// QueueLen is the batch size for mibs/mix (the paper uses 2, 4, 8).
	QueueLen int
	// Objective is the optimization target.
	Objective sched.Objective
	// UseOracle swaps the trained models for ground truth (an ablation:
	// the perfect-model upper bound).
	UseOracle bool
}

// NewScheduler constructs the named scheduler over the trained models.
func (c *Controller) NewScheduler(spec SchedulerSpec) (sched.Scheduler, error) {
	var pred model.Predictor = c.lib
	if spec.UseOracle {
		specs := make([]xen.AppSpec, 0, len(c.specs))
		for _, s := range c.specs {
			specs = append(specs, s)
		}
		pred = model.NewOracle(c.tb, specs)
	}
	return sched.New(spec.Policy, spec.QueueLen, sched.NewScorer(pred, spec.Objective))
}

// InterferenceTable returns (building on first use) the measured pairwise
// ground truth the data-center simulator replays.
func (c *Controller) InterferenceTable() (*sim.InterferenceTable, error) {
	if c.table != nil {
		return c.table, nil
	}
	if len(c.specs) == 0 {
		return nil, fmt.Errorf("core: no applications registered")
	}
	specs := make([]xen.AppSpec, 0, len(c.specs))
	for _, name := range c.Apps() {
		specs = append(specs, c.specs[name])
	}
	t, err := sim.BuildInterferenceTable(c.tb.Host(), specs)
	if err != nil {
		return nil, err
	}
	c.table = t
	return t, nil
}

// Simulate runs a data-center simulation under the given policy.
func (c *Controller) Simulate(spec SchedulerSpec, machines int, tasks []sched.Task, horizon float64) (*sim.Results, error) {
	s, err := c.NewScheduler(spec)
	if err != nil {
		return nil, err
	}
	table, err := c.InterferenceTable()
	if err != nil {
		return nil, err
	}
	eng, err := sim.NewEngine(sim.Config{
		Machines:    machines,
		Scheduler:   s,
		Table:       table,
		DropRecords: len(tasks) > 200000,
	})
	if err != nil {
		return nil, err
	}
	if horizon <= 0 {
		horizon = math.Inf(1)
	}
	return eng.Run(tasks, horizon)
}
