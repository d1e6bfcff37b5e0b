package dst

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"tracon/internal/model"
	"tracon/internal/obs"
	"tracon/internal/sched"
	"tracon/internal/serve"
	"tracon/internal/sim"
)

// The equivalence oracle replays one arrival/completion schedule through
// both placement engines the repo grew: the discrete-event simulator
// (internal/sim, the paper reproduction) and the serving daemon's Placer
// (internal/serve), over a fixed two-VM-per-machine cluster with no faults
// and no admission bound. Both engines resolve a decision through the same
// sched.FreePool, fed the same frees in the same order, so every task must
// start on the same (machine, slot) in both, the backlog must have the
// same depth at every synchronization point, and every task must finish.
//
// All four policies are covered. The online ones (fifo, mios) must also
// start tasks in the same order. The batch ones (mibs, mix) reorder their
// batch, so for them the starts are compared as a set at each
// synchronization point. The daemon never holds a short batch back, so the
// simulator side runs them with a hold of 1 µs: a partial batch is
// scheduled before the next arrival or completion, as the daemon does at
// once.

type oracleEventKind int

const (
	otEnqueue oracleEventKind = iota
	otPlace
	otComplete
)

type oracleEvent struct {
	kind          oracleEventKind
	task          int64
	app           string
	machine, slot int // otPlace only
}

// oracleRecorder captures the simulator's lifecycle stream: the driver
// events (enqueue, complete) the serve replay re-issues, and the place
// events that record the simulator's start order.
type oracleRecorder struct {
	events []oracleEvent
}

func (o *oracleRecorder) Observe(_ sim.View, ev *sim.Event) error {
	switch ev.Kind {
	case sim.OnEnqueue:
		o.events = append(o.events, oracleEvent{kind: otEnqueue, task: ev.Task.ID, app: ev.Task.App})
	case sim.OnPlace:
		p := ev.Place
		o.events = append(o.events, oracleEvent{kind: otPlace, task: p.Task.ID, app: p.Task.App, machine: p.Machine, slot: p.Slot})
	case sim.OnComplete:
		t := ev.Complete.Record.Task
		o.events = append(o.events, oracleEvent{kind: otComplete, task: t.ID, app: t.App})
	}
	return nil
}

// RunOracle draws a seeded arrival schedule, runs it to completion in the
// simulator, then replays the simulator's own event stream against a
// serve.Placer on a virtual clock and asserts agreement. policy is one of
// "fifo", "mios", "mibs" and "mix", and queueLen is the batch length of
// the last two; lib both schedules the serve side and scores the simulator
// side, so the two engines see identical models.
func RunOracle(lib *model.Library, tbl *sim.InterferenceTable, policy string, queueLen, machines, tasks int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	apps := lib.Apps()
	arrivals := make([]sched.Task, tasks)
	for i := range arrivals {
		app := apps[rng.Intn(len(apps))]
		if !tbl.Has(app) {
			return fmt.Errorf("oracle: app %q trained but not in the interference table", app)
		}
		arrivals[i] = sched.Task{ID: int64(i + 1), App: app, Arrival: float64(i)}
	}

	scheduler, err := sched.New(policy, queueLen, sched.NewScorer(lib, 0))
	if err != nil {
		return err
	}
	ordered := scheduler.BatchSize() == 1
	hold := 0.0 // the simulator's default
	if !ordered {
		hold = 1e-6
	}
	recorder := &oracleRecorder{}
	engine, err := sim.NewEngine(sim.Config{
		Machines:     machines,
		Scheduler:    scheduler,
		Table:        tbl,
		Observer:     recorder,
		FlushTimeout: hold,
	})
	if err != nil {
		return err
	}
	if _, err := engine.Run(arrivals, math.Inf(1)); err != nil {
		return err
	}

	// Replay the simulator's stream through the serving daemon.
	srv, err := serve.New(lib, serve.Config{
		Machines:     machines,
		Policy:       policy,
		QueueLen:     queueLen,
		MaxQueue:     -1, // the simulator has no admission control
		DisableCache: true,
		TraceCap:     -1,
		Clock:        obs.NewVirtualClock(time.Unix(1700000000, 0)),
	})
	if err != nil {
		return err
	}
	p := srv.Placer()

	simToServe := map[int64]string{} // sim task ID → serve placement ID
	serveToSim := map[string]int64{}
	var order []string // serve IDs in submission order
	started := map[string]bool{}
	// start is one task beginning on one VM; the two engines' start
	// streams must be equal element by element (as sets under a batch
	// policy).
	type start struct {
		task          int64
		machine, slot int
	}
	var simStarts, serveStarts []start
	enqueued := 0

	// observeStarts appends every serve task that newly reached the
	// placed (or later) state, in submission order — which is start order
	// for an online policy: the placer drains its FIFO backlog head-first.
	// A batch policy may start them in another order.
	observeStarts := func() {
		for _, id := range order {
			if started[id] {
				continue
			}
			rec, ok := p.Get(id)
			if !ok {
				continue
			}
			if rec.Status == serve.StatusPlaced || rec.Status == serve.StatusCompleted {
				started[id] = true
				serveStarts = append(serveStarts, start{serveToSim[id], rec.Machine, rec.Slot})
			}
		}
	}
	// sync asserts the two engines agree at a driver-event boundary: the
	// same starts on the same VMs (in the same order under an online
	// policy), the same backlog depth.
	byTask := func(a, b start) int { return cmp.Compare(a.task, b.task) }
	sync := func(at string) error {
		if len(simStarts) != len(serveStarts) {
			return fmt.Errorf("oracle: at %s: sim started %d tasks, serve %d", at, len(simStarts), len(serveStarts))
		}
		sims, serves := simStarts, serveStarts
		if !ordered {
			sims, serves = slices.Clone(simStarts), slices.Clone(serveStarts)
			slices.SortFunc(sims, byTask)
			slices.SortFunc(serves, byTask)
		}
		for i := range sims {
			if sims[i] != serves[i] {
				return fmt.Errorf("oracle: at %s: starts diverge at position %d: sim %+v, serve %+v",
					at, i, sims[i], serves[i])
			}
		}
		if want, got := enqueued-len(simStarts), p.Snapshot().QueueDepth; want != got {
			return fmt.Errorf("oracle: at %s: serve backlog %d, sim backlog %d", at, got, want)
		}
		return p.CheckInvariants()
	}

	for i, ev := range recorder.events {
		switch ev.kind {
		case otPlace:
			simStarts = append(simStarts, start{ev.task, ev.machine, ev.slot})
		case otEnqueue:
			if err := sync(fmt.Sprintf("event %d (enqueue task %d)", i, ev.task)); err != nil {
				return err
			}
			rec, err := p.SubmitKeyed(ev.app, "", "")
			if err != nil {
				return fmt.Errorf("oracle: submit task %d: %w", ev.task, err)
			}
			simToServe[ev.task] = rec.ID
			serveToSim[rec.ID] = ev.task
			order = append(order, rec.ID)
			enqueued++
			observeStarts()
		case otComplete:
			if err := sync(fmt.Sprintf("event %d (complete task %d)", i, ev.task)); err != nil {
				return err
			}
			id, ok := simToServe[ev.task]
			if !ok {
				return fmt.Errorf("oracle: sim completed task %d the serve side never admitted", ev.task)
			}
			if _, err := p.Complete(id); err != nil {
				return fmt.Errorf("oracle: complete task %d (%s): %w — the engines placed different tasks", ev.task, id, err)
			}
			observeStarts()
		}
	}
	if err := sync("end of stream"); err != nil {
		return err
	}
	if len(simStarts) != tasks {
		return fmt.Errorf("oracle: sim started %d of %d tasks", len(simStarts), tasks)
	}
	if depth := p.Snapshot().QueueDepth; depth != 0 {
		return fmt.Errorf("oracle: %d tasks still queued after the sim completed everything", depth)
	}
	if free := p.Snapshot().FreeSlots; free != 2*machines {
		return fmt.Errorf("oracle: %d free slots at the end, want %d", free, 2*machines)
	}
	return nil
}
