// Package tracon is a from-scratch Go implementation of TRACON, the
// interference-aware Task and Resource Allocation CONtrol framework for
// data-intensive applications in virtualized environments (Chiang & Huang,
// SC 2011).
//
// The package bundles everything the paper describes: a calibrated
// Xen-like host testbed (driver-domain I/O routing, credit-scheduled CPU,
// HDD/iSCSI/SSD device models), the statistical-learning stack (weighted
// mean method, linear and nonlinear models with AIC stepwise selection and
// Gauss-Newton fitting), the interference-aware schedulers (MIOS, MIBS,
// MIX against a FIFO baseline), the task and resource monitor with online
// model adaptation, and a discrete-event data-center simulator that scales
// to 10,000 machines.
//
// Quick start:
//
//	sys, err := tracon.New(tracon.Config{})
//	...
//	err = sys.RegisterBenchmarks()            // profile + train models
//	rt, err := sys.PredictRuntime("blastn", "video")
//	rep, err := sys.RunStatic(tracon.Policy{Name: "mibs", QueueLen: 8}, 16, nil)
//
// See the examples/ directory for complete programs.
package tracon

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"tracon/internal/core"
	"tracon/internal/model"
	"tracon/internal/sched"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

// ModelKind names an interference-model family.
type ModelKind string

// Model families (Sec. 3.1). NLM is the paper's recommendation; ForestKind
// is this implementation's future-work extension (a bagged regression-tree
// ensemble).
const (
	WMM        ModelKind = "wmm"
	LM         ModelKind = "lm"
	NLM        ModelKind = "nlm"
	ForestKind ModelKind = "forest"
)

// Storage names a device model for the simulated testbed.
type Storage string

// Storage devices. HDD is the paper's testbed; ISCSI is the Fig 7
// migration target; SSD is the future-work device.
const (
	HDD   Storage = "hdd"
	ISCSI Storage = "iscsi"
	SSD   Storage = "ssd"
)

// Objective selects what a scheduler optimizes.
type Objective string

// Objectives: MIBS_RT minimizes total runtime, MIBS_IO maximizes IOPS.
const (
	MinRuntime Objective = "runtime"
	MaxIOPS    Objective = "iops"
)

// Mix names a workload I/O-intensity mix (Sec. 4.1).
type Mix string

// The three mixes.
const (
	Light  Mix = "light"
	Medium Mix = "medium"
	Heavy  Mix = "heavy"
)

// Policy names a scheduling policy.
type Policy struct {
	// Name is "fifo", "mios", "mibs" or "mix".
	Name string
	// QueueLen is the batch length for mibs/mix (paper: 2, 4, 8).
	QueueLen int
	// Objective defaults to MinRuntime.
	Objective Objective
	// Oracle swaps trained models for ground truth (upper-bound ablation).
	Oracle bool
}

// Config configures a System.
type Config struct {
	// Model selects the deployed family (default NLM).
	Model ModelKind
	// Storage selects the device (default HDD).
	Storage Storage
	// Seed fixes all randomness (default 1).
	Seed int64
	// MeasurementRuns is the repetitions averaged per measurement
	// (default 3, as in the paper).
	MeasurementRuns int
	// Noise is the per-run multiplicative measurement noise σ
	// (default 0.05).
	Noise float64
}

// System is a TRACON deployment: testbed, models, monitor, schedulers and
// simulator behind one façade.
type System struct {
	ctrl *core.Controller
	cfg  Config
}

// New builds an empty System; register applications before predicting or
// simulating.
func New(cfg Config) (*System, error) {
	if cfg.Model == "" {
		cfg.Model = NLM
	}
	if cfg.Storage == "" {
		cfg.Storage = HDD
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MeasurementRuns == 0 {
		cfg.MeasurementRuns = 3
	}
	if cfg.Noise == 0 {
		cfg.Noise = 0.05
	}
	kind, err := kindOf(cfg.Model)
	if err != nil {
		return nil, err
	}
	host := xen.DefaultHost()
	switch cfg.Storage {
	case HDD:
		host.Disk = xen.HDD()
	case ISCSI:
		host.Disk = xen.ISCSI()
	case SSD:
		host.Disk = xen.SSD()
	default:
		return nil, fmt.Errorf("tracon: unknown storage %q", cfg.Storage)
	}
	ctrl, err := core.New(core.Config{
		Host:             host,
		MeasurementRuns:  cfg.MeasurementRuns,
		MeasurementNoise: cfg.Noise,
		Seed:             cfg.Seed,
		Kind:             kind,
		Adaptive:         model.DefaultAdaptive(),
	})
	if err != nil {
		return nil, err
	}
	return &System{ctrl: ctrl, cfg: cfg}, nil
}

func kindOf(m ModelKind) (model.Kind, error) {
	switch m {
	case WMM:
		return model.WMM, nil
	case LM:
		return model.LM, nil
	case NLM:
		return model.NLM, nil
	case ForestKind:
		return model.Forest, nil
	default:
		return 0, fmt.Errorf("tracon: unknown model kind %q", m)
	}
}

func objectiveOf(o Objective) (sched.Objective, error) {
	switch o {
	case "", MinRuntime:
		return sched.MinRuntime, nil
	case MaxIOPS:
		return sched.MaxIOPS, nil
	default:
		return 0, fmt.Errorf("tracon: unknown objective %q", o)
	}
}

func mixOf(m Mix) (workload.IOIntensity, error) {
	switch m {
	case Light:
		return workload.LightIO, nil
	case "", Medium:
		return workload.MediumIO, nil
	case Heavy:
		return workload.HeavyIO, nil
	default:
		return 0, fmt.Errorf("tracon: unknown mix %q", m)
	}
}

func (s *System) schedulerSpec(p Policy) (core.SchedulerSpec, error) {
	obj, err := objectiveOf(p.Objective)
	if err != nil {
		return core.SchedulerSpec{}, err
	}
	name := p.Name
	if name == "" {
		name = "fifo"
	}
	q := p.QueueLen
	if q <= 0 {
		q = 8
	}
	return core.SchedulerSpec{Policy: name, QueueLen: q, Objective: obj, UseOracle: p.Oracle}, nil
}

// RegisterBenchmarks profiles and trains models for the paper's eight
// data-intensive benchmarks (Table 3). This is the expensive bring-up
// call: 8 applications × 125 profiling workloads.
func (s *System) RegisterBenchmarks() error {
	return s.ctrl.RegisterBenchmarks()
}

// App describes a custom application for RegisterApp.
type App struct {
	Name string
	// CPUSeconds of computation, ReadOps/WriteOps requests of ReqSizeKB at
	// sequentiality Seq (0..1), ThinkSeconds idle, with up to IODepth
	// requests in flight.
	CPUSeconds   float64
	ReadOps      float64
	WriteOps     float64
	ReqSizeKB    float64
	Seq          float64
	ThinkSeconds float64
	IODepth      float64
}

// RegisterApp profiles and trains a model for a custom application.
func (s *System) RegisterApp(a App) error {
	return s.ctrl.Register(xen.AppSpec{
		Name:         a.Name,
		CPUSeconds:   a.CPUSeconds,
		ReadOps:      a.ReadOps,
		WriteOps:     a.WriteOps,
		ReqSizeKB:    a.ReqSizeKB,
		Seq:          a.Seq,
		ThinkSeconds: a.ThinkSeconds,
		MaxIODepth:   a.IODepth,
	})
}

// Apps lists the registered applications.
func (s *System) Apps() []string { return s.ctrl.Apps() }

// PredictRuntime predicts target's runtime (seconds) when co-located with
// corunner ("" = idle neighbour), using the trained models.
func (s *System) PredictRuntime(target, corunner string) (float64, error) {
	return s.ctrl.Library().PredictRuntime(target, corunner)
}

// PredictIOPS predicts target's throughput under the co-location.
func (s *System) PredictIOPS(target, corunner string) (float64, error) {
	return s.ctrl.Library().PredictIOPS(target, corunner)
}

// SoloRuntime returns the measured no-interference runtime.
func (s *System) SoloRuntime(target string) (float64, error) {
	return s.ctrl.Library().SoloRuntime(target)
}

// ModelError cross-validates the deployed model family on an application's
// interference profile and returns the paper's error metric (mean relative
// error and its standard deviation).
func (s *System) ModelError(app string, obj Objective) (mean, stddev float64, err error) {
	ts, err := s.ctrl.TrainingSet(app)
	if err != nil {
		return 0, 0, err
	}
	kind, err := kindOf(s.cfg.Model)
	if err != nil {
		return 0, 0, err
	}
	o, err := objectiveOf(obj)
	if err != nil {
		return 0, 0, err
	}
	resp := model.Runtime
	if o == sched.MaxIOPS {
		resp = model.IOPS
	}
	errs, err := model.CrossValidate(ts, kind, resp, 5)
	if err != nil {
		return 0, 0, err
	}
	mean, stddev = model.ErrorSummary(errs)
	return mean, stddev, nil
}

// Observe runs one production co-run measurement of target against a
// registered background application and feeds it to the online adaptation
// loop; it reports whether the model was rebuilt.
func (s *System) Observe(target, background string) (rebuilt bool, err error) {
	tSpec, err := s.ctrl.Spec(target)
	if err != nil {
		return false, err
	}
	bSpec, err := s.ctrl.Spec(background)
	if err != nil {
		return false, err
	}
	sample, err := s.ctrl.Monitor().ObserveCoRun(tSpec, bSpec)
	if err != nil {
		return false, err
	}
	return s.ctrl.Observe(target, sample)
}

// AdaptationStats reports the state of an application's online-learning
// loop: how many production observations it has absorbed, its mean
// prediction error over the most recent n observations, and how many times
// the model has been rebuilt.
func (s *System) AdaptationStats(app string, n int) (observations int, recentErr float64, rebuilds int, err error) {
	ad, err := s.ctrl.Adaptive(app)
	if err != nil {
		return 0, 0, 0, err
	}
	return len(ad.RuntimeErrors), ad.RecentError(n), len(ad.Rebuilds), nil
}

// Report summarizes a simulation run.
type Report struct {
	Scheduler    string
	Machines     int
	Submitted    int
	Completed    int
	TotalRuntime float64 // Σ task runtimes (eq. 3)
	TotalIOPS    float64 // Σ task throughputs (eq. 4)
	MeanRuntime  float64
	MeanWait     float64
	Horizon      float64
}

// RunStatic runs the static-workload scenario (Sec. 4.2): one task per VM,
// all present at time zero, scheduled as one batch. apps may name the task
// list explicitly; when nil, 2×machines tasks are drawn from the medium
// mix with the system seed.
func (s *System) RunStatic(p Policy, machines int, apps []string) (Report, error) {
	if machines <= 0 {
		return Report{}, fmt.Errorf("tracon: machines must be positive")
	}
	if apps == nil {
		mixer := workload.NewMixer(s.cfg.Seed)
		for _, spec := range mixer.Batch(workload.MediumIO, 2*machines) {
			apps = append(apps, workload.BaseName(spec.Name))
		}
	}
	tasks := make([]sched.Task, len(apps))
	for i, a := range apps {
		tasks[i] = sched.Task{ID: int64(i), App: a}
	}
	rep, _, err := s.simulate(p, machines, tasks, math.Inf(1))
	return rep, err
}

// RunDynamic runs the dynamic-workload scenario (Sec. 4.7): Poisson
// arrivals at lambda tasks/minute from the given mix, over horizonHours.
func (s *System) RunDynamic(p Policy, machines int, lambda, horizonHours float64, mix Mix) (Report, error) {
	if machines <= 0 || lambda <= 0 || horizonHours <= 0 {
		return Report{}, fmt.Errorf("tracon: machines, lambda and horizon must be positive")
	}
	m, err := mixOf(mix)
	if err != nil {
		return Report{}, err
	}
	horizon := horizonHours * 3600
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	times := workload.Arrivals(rng, lambda, horizon)
	mixer := workload.NewMixer(s.cfg.Seed + 1)
	tasks := make([]sched.Task, len(times))
	for i, tm := range times {
		tasks[i] = sched.Task{ID: int64(i), App: workload.BaseName(mixer.Draw(m).Spec.Name), Arrival: tm}
	}
	rep, _, err := s.simulate(p, machines, tasks, horizon)
	return rep, err
}

// WorkflowTask is one stage of a data-intensive scientific workflow: an
// application instance that may only start after the named stages finish.
type WorkflowTask struct {
	// Name identifies the stage within the workflow (unique).
	Name string
	// App is the registered application the stage runs.
	App string
	// After lists stage names that must complete first.
	After []string
}

// RunWorkflow executes a workflow DAG on the cluster under the policy and
// returns the report plus the workflow makespan (completion time of the
// last stage). All stages are submitted at time zero; dependencies gate
// when each becomes schedulable.
func (s *System) RunWorkflow(p Policy, machines int, stages []WorkflowTask) (Report, float64, error) {
	if machines <= 0 {
		return Report{}, 0, fmt.Errorf("tracon: machines must be positive")
	}
	if len(stages) == 0 {
		return Report{}, 0, fmt.Errorf("tracon: empty workflow")
	}
	ids := map[string]int64{}
	for i, st := range stages {
		if _, dup := ids[st.Name]; dup {
			return Report{}, 0, fmt.Errorf("tracon: duplicate stage %q", st.Name)
		}
		ids[st.Name] = int64(i)
	}
	tasks := make([]sched.Task, len(stages))
	for i, st := range stages {
		t := sched.Task{ID: int64(i), App: st.App}
		for _, dep := range st.After {
			id, ok := ids[dep]
			if !ok {
				return Report{}, 0, fmt.Errorf("tracon: stage %q depends on unknown stage %q", st.Name, dep)
			}
			t.DependsOn = append(t.DependsOn, id)
		}
		tasks[i] = t
	}
	return s.simulate(p, machines, tasks, math.Inf(1))
}

// simulate runs tasks on the cluster under p until the horizon and
// summarizes the run; it also returns the last completion time. A static
// run (an infinite horizon) schedules the whole task list as one batch.
func (s *System) simulate(p Policy, machines int, tasks []sched.Task, horizon float64) (Report, float64, error) {
	spec, err := s.schedulerSpec(p)
	if err != nil {
		return Report{}, 0, err
	}
	if math.IsInf(horizon, 1) && (spec.Policy == "mibs" || spec.Policy == "mix") {
		spec.QueueLen = len(tasks)
	}
	res, err := s.ctrl.Simulate(spec, machines, tasks, horizon)
	if err != nil {
		return Report{}, 0, err
	}
	rep := Report{
		Scheduler:    res.Scheduler,
		Machines:     machines,
		Submitted:    res.Submitted,
		Completed:    res.CompletedCount,
		TotalRuntime: res.TotalRuntime,
		TotalIOPS:    res.TotalIOPS,
		MeanRuntime:  res.MeanRuntime(),
		MeanWait:     res.MeanWait(),
		Horizon:      res.Horizon,
	}
	return rep, res.LastFinish, nil
}

// Speedup is the paper's eq. 5: FIFO total runtime over the policy's.
func Speedup(fifo, policy Report) float64 {
	if policy.TotalRuntime == 0 {
		return 0
	}
	return fifo.TotalRuntime / policy.TotalRuntime
}

// IOBoost is the paper's eq. 6: the policy's total IOPS over FIFO's.
func IOBoost(fifo, policy Report) float64 {
	if fifo.TotalIOPS == 0 {
		return 0
	}
	return policy.TotalIOPS / fifo.TotalIOPS
}

// NormalizedThroughput is Sec. 4.7's T_S / T_FIFO.
func NormalizedThroughput(fifo, policy Report) float64 {
	if fifo.Completed == 0 {
		return 0
	}
	return float64(policy.Completed) / float64(fifo.Completed)
}

// SaveModel serializes an application's trained model as JSON (supported
// for the regression-backed families; the instance-based WMM and forest
// models are retrained from the stored profile instead).
func (s *System) SaveModel(app string, w io.Writer) error {
	m, err := s.ctrl.Library().Model(app)
	if err != nil {
		return err
	}
	return m.Save(w)
}

// LoadModel replaces a registered application's served model with one
// previously written by SaveModel.
func (s *System) LoadModel(r io.Reader) error {
	m, err := model.Load(r)
	if err != nil {
		return err
	}
	return s.ctrl.Library().Replace(m.App, m)
}

// Controller exposes the underlying manager for advanced use (experiment
// drivers); most callers should not need it.
func (s *System) Controller() *core.Controller { return s.ctrl }
