package experiments

import (
	"fmt"
	"strings"

	"tracon/internal/model"
	"tracon/internal/par"
	"tracon/internal/sched"
	"tracon/internal/sim"
	"tracon/internal/workload"
)

// SpotCheckResult reproduces the Sec. 4.8 claim: "If we scale the data
// center to 10,000 machines and λ = 10,000, the normalized throughput of
// MIBS8 with the medium I/O workload remains high with 40% improvement."
// The run uses the manager-server hierarchy: the cluster is partitioned
// into groups, each scheduled independently, tasks routed round-robin.
type SpotCheckResult struct {
	Machines     int
	Lambda       float64
	Groups       int
	HorizonHours float64
	FIFO         float64 // completed tasks
	MIBS8        float64
	Normalized   float64
}

// SpotCheck10k runs the 10,000-machine experiment. horizonHours below the
// paper's 10 h keeps the run tractable; the normalized throughput is the
// reported quantity either way.
func SpotCheck10k(e *Env, horizonHours float64) (*SpotCheckResult, error) {
	if horizonHours <= 0 {
		horizonHours = 2
	}
	const machines = 10000
	const lambda = 10000
	const groups = 10
	horizon := horizonHours * 3600
	tasks := poissonTasks(workload.MediumIO, lambda, horizon, e.Seed+101)

	fifo, err := e.hierarchy("fifo", 1, machines, groups, tasks, horizon)
	if err != nil {
		return nil, err
	}
	mibs, err := e.hierarchy("mibs", 8, machines, groups, tasks, horizon)
	if err != nil {
		return nil, err
	}
	res := &SpotCheckResult{
		Machines: machines, Lambda: lambda, Groups: groups,
		HorizonHours: horizonHours, FIFO: completed(fifo), MIBS8: completed(mibs),
	}
	if res.FIFO > 0 {
		res.Normalized = res.MIBS8 / res.FIFO
	}
	return res, nil
}

// hierarchy is the manager-server hierarchy of Sec. 3: the machines split
// evenly into groups, the root manager routes tasks round-robin, and each
// group is scheduled by its own instance of the policy over the NLM
// runtime scorer. Groups simulate on up to the Env's worker count of
// goroutines; results come back in group order.
func (e *Env) hierarchy(policy string, q, machines, groups int, tasks []sched.Task, horizon float64) ([]*sim.Results, error) {
	routed := make([][]sched.Task, groups)
	for i, t := range tasks {
		routed[i%groups] = append(routed[i%groups], t)
	}
	out := make([]*sim.Results, groups)
	err := par.ForEach(e.workers, groups, func(g int) error {
		s, err := sched.New(policy, q, e.scorerFor(model.NLM, sched.MinRuntime))
		if err != nil {
			return err
		}
		out[g], err = e.simulate("spotcheck", s, machines/groups, routed[g], horizon)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// completed sums the groups' completed-task counts.
func completed(groups []*sim.Results) float64 {
	total := 0.0
	for _, r := range groups {
		total += r.CompletedTasks()
	}
	return total
}

// String renders the spot check.
func (r *SpotCheckResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec 4.8 spot check: %d machines, λ=%.0f/min, %d manager groups, %.1f h\n",
		r.Machines, r.Lambda, r.Groups, r.HorizonHours)
	fmt.Fprintf(&b, "FIFO completed %.0f, MIBS8 completed %.0f, normalized throughput %.3f\n",
		r.FIFO, r.MIBS8, r.Normalized)
	return b.String()
}
