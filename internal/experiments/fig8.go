package experiments

import (
	"fmt"
	"math"
	"strings"

	"tracon/internal/model"
	"tracon/internal/sched"
	"tracon/internal/workload"
)

// Fig8Cell is one bar of Fig 8: the speedup of a MIBS variant over FIFO
// for a machine count and an I/O mix (static workload: one task per VM).
type Fig8Cell struct {
	Machines int
	Mix      workload.IOIntensity
	// SpeedupRT is MIBS_RT's eq.-5 speedup; SpeedupIO is MIBS_IO's;
	// IOBoost is MIBS_IO's eq.-6 throughput gain.
	SpeedupRT float64
	SpeedupIO float64
	IOBoost   float64
}

// Fig8Result reproduces Fig 8.
type Fig8Result struct {
	Machines []int
	Mixes    []workload.IOIntensity
	Cells    []Fig8Cell
	Repeats  int
}

// Fig8 sweeps machine counts × mixes with the static scenario, averaging
// over repeats batches.
func Fig8(e *Env, machines []int, repeats int) (*Fig8Result, error) {
	if len(machines) == 0 {
		machines = []int{8, 64, 256, 1024}
	}
	if repeats <= 0 {
		repeats = 3
	}
	res := &Fig8Result{
		Machines: machines,
		Mixes:    []workload.IOIntensity{workload.LightIO, workload.MediumIO, workload.HeavyIO},
		Repeats:  repeats,
	}
	for _, m := range machines {
		for _, mix := range res.Mixes {
			var sumFifoRT, sumRT, sumFifoIO, sumIO, sumIOBoostNum float64
			for rep := 0; rep < repeats; rep++ {
				tasks := batchTasks(workload.NewMixer(e.Seed+int64(rep)*307+int64(m)).Batch(mix, 2*m))
				fifo, err := e.simulate("static", sched.FIFO{}, m, tasks, math.Inf(1))
				if err != nil {
					return nil, err
				}
				rt, err := e.simulate("static", &sched.MIBS{
					Scorer:   e.scorerFor(model.NLM, sched.MinRuntime),
					QueueLen: len(tasks),
				}, m, tasks, math.Inf(1))
				if err != nil {
					return nil, err
				}
				io, err := e.simulate("static", &sched.MIBS{
					Scorer:   e.scorerFor(model.NLM, sched.MaxIOPS),
					QueueLen: len(tasks),
				}, m, tasks, math.Inf(1))
				if err != nil {
					return nil, err
				}
				sumFifoRT += fifo.TotalRuntime
				sumRT += rt.TotalRuntime
				sumFifoIO += fifo.TotalIOPS
				sumIO += io.TotalRuntime
				sumIOBoostNum += io.TotalIOPS
			}
			res.Cells = append(res.Cells, Fig8Cell{
				Machines:  m,
				Mix:       mix,
				SpeedupRT: sumFifoRT / sumRT,
				SpeedupIO: sumFifoRT / sumIO,
				IOBoost:   sumIOBoostNum / sumFifoIO,
			})
		}
	}
	return res, nil
}

// String renders the sweep.
func (r *Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8: static-workload speedup over FIFO (MIBS, NLM models, %d repeats)\n", r.Repeats)
	fmt.Fprintf(&b, "%-9s %-8s %12s %12s %10s\n", "machines", "mix", "MIBS_RT", "MIBS_IO(rt)", "IOBoost")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-9d %-8s %12.3f %12.3f %10.3f\n", c.Machines, c.Mix, c.SpeedupRT, c.SpeedupIO, c.IOBoost)
	}
	return b.String()
}
