package experiments

import (
	"fmt"
	"math"
	"strings"

	"tracon/internal/model"
	"tracon/internal/sched"
	"tracon/internal/stats"
	"tracon/internal/workload"
)

// Fig4Result reproduces Fig 4: the effect of the model family on the
// scheduler. Batches of 32 uniformly drawn tasks are scheduled onto 16
// machines (two VMs each) by MIBS_RT and MIBS_IO using WMM, LM and NLM
// models; Speedup and IOBoost are normalized to FIFO on the same batch.
type Fig4Result struct {
	Kinds []model.Kind
	// Speedup and IOBoost are summarized over the repeated batches.
	Speedup map[model.Kind]stats.Summary
	IOBoost map[model.Kind]stats.Summary
	Batches int
}

// Fig4 runs the experiment with the paper's dimensions (32 tasks, 16
// machines) over several batches.
func Fig4(e *Env, batches int) (*Fig4Result, error) {
	if batches <= 0 {
		batches = 10
	}
	const machines = 16
	const batchSize = 32
	res := &Fig4Result{
		Kinds:   []model.Kind{model.WMM, model.LM, model.NLM},
		Speedup: map[model.Kind]stats.Summary{},
		IOBoost: map[model.Kind]stats.Summary{},
		Batches: batches,
	}
	speedups := map[model.Kind][]float64{}
	boosts := map[model.Kind][]float64{}
	for trial := 0; trial < batches; trial++ {
		tasks := batchTasks(workload.NewMixer(e.Seed + int64(trial)*101).UniformBatch(batchSize))
		fifo, err := e.simulate("static", sched.FIFO{}, machines, tasks, math.Inf(1))
		if err != nil {
			return nil, err
		}
		for _, k := range res.Kinds {
			// Tag runs with the model family: the scheduler name and task
			// stream repeat across WMM/LM/NLM, so the family must key the
			// observability label.
			tag := "static-" + k.String()
			rt, err := e.simulate(tag, &sched.MIBS{
				Scorer:   e.scorerFor(k, sched.MinRuntime),
				QueueLen: batchSize,
			}, machines, tasks, math.Inf(1))
			if err != nil {
				return nil, err
			}
			io, err := e.simulate(tag, &sched.MIBS{
				Scorer:   e.scorerFor(k, sched.MaxIOPS),
				QueueLen: batchSize,
			}, machines, tasks, math.Inf(1))
			if err != nil {
				return nil, err
			}
			speedups[k] = append(speedups[k], fifo.TotalRuntime/rt.TotalRuntime)
			boosts[k] = append(boosts[k], io.TotalIOPS/fifo.TotalIOPS)
		}
	}
	for _, k := range res.Kinds {
		res.Speedup[k] = stats.Summarize(speedups[k])
		res.IOBoost[k] = stats.Summarize(boosts[k])
	}
	return res, nil
}

// String renders the two bar groups.
func (r *Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 4: MIBS with different models, normalized to FIFO (%d batches of 32 tasks on 16 machines)\n", r.Batches)
	fmt.Fprintf(&b, "%-8s %18s %18s\n", "model", "Speedup (MIBS_RT)", "IOBoost (MIBS_IO)")
	for _, k := range r.Kinds {
		sp, io := r.Speedup[k], r.IOBoost[k]
		fmt.Fprintf(&b, "%-8s   %6.3f ± %5.3f    %6.3f ± %5.3f\n", k, sp.Mean, sp.Stddev, io.Mean, io.Stddev)
	}
	return b.String()
}
