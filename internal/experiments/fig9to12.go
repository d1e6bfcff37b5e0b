package experiments

import (
	"fmt"
	"strings"

	"tracon/internal/model"
	"tracon/internal/sched"
	"tracon/internal/workload"
)

// DynamicCell is one point of the dynamic-workload figures: a scheduler's
// completed-task throughput normalized to FIFO under the same arrivals.
type DynamicCell struct {
	Scheduler string
	Machines  int
	Lambda    float64 // tasks per minute
	Mix       workload.IOIntensity
	// Completed is the completed-task count within the horizon (the T_S of
	// Sec. 4.7 — a count, not a rate); Normalized is T_S / T_FIFO, where the
	// shared horizon divides out.
	Completed  float64
	Normalized float64
}

// DynamicResult is the shared shape of Figs 9–12.
type DynamicResult struct {
	Title        string
	HorizonHours float64
	Cells        []DynamicCell
}

// dynPolicy describes one scheduler under test in the dynamic figures.
type dynPolicy struct {
	label  string
	policy string
	queue  int
}

// runDynamicSet evaluates the policies (plus FIFO) on identical arrivals
// and returns normalized throughputs.
func (e *Env) runDynamicSet(policies []dynPolicy, machines int, lambda float64, mix workload.IOIntensity, horizon float64, seed int64) ([]DynamicCell, error) {
	tasks := poissonTasks(mix, lambda, horizon, seed)
	fifo, err := e.simulate("dynamic", sched.FIFO{}, machines, tasks, horizon)
	if err != nil {
		return nil, err
	}
	base := fifo.CompletedTasks()
	var out []DynamicCell
	for _, p := range policies {
		s, err := sched.New(p.policy, p.queue, e.scorerFor(model.NLM, sched.MinRuntime))
		if err != nil {
			return nil, err
		}
		res, err := e.simulate("dynamic", s, machines, tasks, horizon)
		if err != nil {
			return nil, err
		}
		norm := 0.0
		if base > 0 {
			norm = res.CompletedTasks() / base
		}
		out = append(out, DynamicCell{
			Scheduler:  p.label,
			Machines:   machines,
			Lambda:     lambda,
			Mix:        mix,
			Completed:  res.CompletedTasks(),
			Normalized: norm,
		})
	}
	return out, nil
}

// fig9Policies are the schedulers of Fig 9 and Fig 11.
var fig9Policies = []dynPolicy{
	{"MIBS8", "mibs", 8},
	{"MIOS", "mios", 1},
	{"MIX8", "mix", 8},
}

// queuePolicies are the MIBS queue-length variants of Fig 10 and Fig 12.
var queuePolicies = []dynPolicy{
	{"MIBS2", "mibs", 2},
	{"MIBS4", "mibs", 4},
	{"MIBS8", "mibs", 8},
}

// Fig9 reproduces Fig 9: normalized throughput of MIBS8, MIOS and MIX8 at
// varying arrival rates λ on 64 machines over ten hours, for the three
// I/O mixes.
func Fig9(e *Env, lambdas []float64, horizonHours float64) (*DynamicResult, error) {
	return e.lambdaSweep("Fig 9: normalized throughput vs λ (64 machines)", fig9Policies, lambdas, horizonHours, 13)
}

// Fig10 reproduces Fig 10: MIBS queue lengths 2/4/8 vs λ.
func Fig10(e *Env, lambdas []float64, horizonHours float64) (*DynamicResult, error) {
	return e.lambdaSweep("Fig 10: MIBS queue lengths vs λ (64 machines)", queuePolicies, lambdas, horizonHours, 17)
}

// Fig11 reproduces Fig 11: scalability of MIBS8/MIOS/MIX8 at λ = 1000
// tasks/minute for 8–1024 machines.
func Fig11(e *Env, machines []int, horizonHours float64) (*DynamicResult, error) {
	return e.machineSweep("Fig 11: normalized throughput vs machines (λ=1000/min, medium mix)", fig9Policies, machines, horizonHours, 1)
}

// Fig12 reproduces Fig 12: MIBS queue lengths vs machine count at
// λ = 1000 tasks/minute.
func Fig12(e *Env, machines []int, horizonHours float64) (*DynamicResult, error) {
	return e.machineSweep("Fig 12: MIBS queue lengths vs machines (λ=1000/min, medium mix)", queuePolicies, machines, horizonHours, 3)
}

// lambdaSweep runs the policies on 64 machines at each arrival rate
// (default the paper's six) for the three I/O mixes, over horizonHours
// (default 10). Each rate's arrivals are seeded by int64(λ·seedScale).
func (e *Env) lambdaSweep(title string, policies []dynPolicy, lambdas []float64, horizonHours, seedScale float64) (*DynamicResult, error) {
	if len(lambdas) == 0 {
		lambdas = []float64{2, 5, 10, 20, 50, 100}
	}
	if horizonHours <= 0 {
		horizonHours = 10
	}
	res := &DynamicResult{Title: title, HorizonHours: horizonHours}
	for _, mix := range []workload.IOIntensity{workload.LightIO, workload.MediumIO, workload.HeavyIO} {
		for _, lam := range lambdas {
			cells, err := e.runDynamicSet(policies, 64, lam, mix, horizonHours*3600, e.Seed+int64(lam*seedScale))
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, cells...)
		}
	}
	return res, nil
}

// machineSweep runs the policies at λ = 1000 tasks/minute on the medium
// mix for each cluster size (default 8–1024 machines), over horizonHours
// (default 10). Each size's arrivals are seeded by machines·seedScale.
func (e *Env) machineSweep(title string, policies []dynPolicy, machines []int, horizonHours float64, seedScale int64) (*DynamicResult, error) {
	if len(machines) == 0 {
		machines = []int{8, 64, 256, 1024}
	}
	if horizonHours <= 0 {
		horizonHours = 10
	}
	const lambda = 1000
	res := &DynamicResult{Title: title, HorizonHours: horizonHours}
	for _, m := range machines {
		cells, err := e.runDynamicSet(policies, m, lambda, workload.MediumIO, horizonHours*3600, e.Seed+int64(m)*seedScale)
		if err != nil {
			return nil, err
		}
		res.Cells = append(res.Cells, cells...)
	}
	return res, nil
}

// Cell returns the point for (scheduler, machines, lambda, mix).
func (r *DynamicResult) Cell(schedName string, machines int, lambda float64, mix workload.IOIntensity) (DynamicCell, bool) {
	for _, c := range r.Cells {
		if c.Scheduler == schedName && c.Machines == machines && c.Lambda == lambda && c.Mix == mix {
			return c, true
		}
	}
	return DynamicCell{}, false
}

// String renders the sweep.
func (r *DynamicResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (horizon %.0f h)\n", r.Title, r.HorizonHours)
	fmt.Fprintf(&b, "%-9s %-8s %8s %-8s %12s %11s\n", "machines", "mix", "λ/min", "sched", "completed", "vs FIFO")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-9d %-8s %8.0f %-8s %12.0f %11.3f\n",
			c.Machines, c.Mix, c.Lambda, c.Scheduler, c.Completed, c.Normalized)
	}
	return b.String()
}
