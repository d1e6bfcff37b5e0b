package experiments

import (
	"math"

	"tracon/internal/model"
	"tracon/internal/sched"
	"tracon/internal/sim"
	"tracon/internal/workload"
)

// RunStaticPublic exposes the static-batch runner for the ablation benches
// in the repository root.
func (e *Env) RunStaticPublic(s sched.Scheduler, machines int, tasks []sched.Task) (*sim.Results, error) {
	return e.simulate("static", s, machines, tasks, math.Inf(1))
}

// RunQueueLength runs MIBS with the given queue length under Poisson
// arrivals and returns its throughput normalized to FIFO on the same
// arrivals — the ablation behind Figs 10/12 extended to arbitrary q
// (q = 1 degenerates to head-only batching, close to MIOS).
func RunQueueLength(e *Env, q, machines int, lambda, horizon float64) (float64, error) {
	tasks := poissonTasks(workload.MediumIO, lambda, horizon, e.Seed+int64(q)*37)
	fifo, err := e.simulate("dynamic", sched.FIFO{}, machines, tasks, horizon)
	if err != nil {
		return 0, err
	}
	mibs, err := e.simulate("dynamic", &sched.MIBS{
		Scorer:   e.scorerFor(model.NLM, sched.MinRuntime),
		QueueLen: q,
	}, machines, tasks, horizon)
	if err != nil {
		return 0, err
	}
	if fifo.CompletedTasks() == 0 {
		return 0, nil
	}
	return mibs.CompletedTasks() / fifo.CompletedTasks(), nil
}
