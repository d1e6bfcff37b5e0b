package simobs

import (
	"fmt"
	"strings"
	"sync"

	"tracon/internal/sched"
	"tracon/internal/sim"
)

// InvariantAuditor is a sim.Observer that validates the engine's internal
// consistency as the simulation runs:
//
//   - event-time monotonicity: the clock never goes backwards;
//   - energy monotonicity: integrated energy never decreases;
//   - work conservation: no running task's remaining work is negative, and
//     every completed task's pre-clamp residual settles to zero within
//     float tolerance;
//   - pool⟺machine consistency: a slot runs a task exactly when the pool
//     has it occupied by that application, a down machine runs nothing,
//     and the pool's free index passes its own re-derivation
//     (sched.FreePool.Check);
//   - FIFO fairness: every AnyCategory pop returns the slot that had been
//     free the longest: no slot left free carries an older freed-order
//     stamp.
//
// The full-state scan runs only on OnStep and OnDone events (where the
// engine guarantees a consistent snapshot — OnComplete and OnPop fire
// mid-transition) and can be sampled via Every to keep large runs cheap.
// In Strict mode the first violation aborts the run with an error;
// otherwise violations are tallied and kept for Summary.
type InvariantAuditor struct {
	mu sync.Mutex

	// Every samples the O(slots) full-state scan to one in Every events;
	// values < 1 mean every event. Cheap O(1) checks always run.
	Every int
	// Strict aborts the run on the first violation.
	Strict bool

	lastTime   float64
	lastEnergy float64
	started    bool

	events     int64
	fullScans  int64
	popChecks  int64
	completes  int64
	total      int64
	violations []Violation
}

// Violation is one recorded invariant failure.
type Violation struct {
	Time   float64
	Kind   string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%.6f %s: %s", v.Time, v.Kind, v.Detail)
}

// keptViolations bounds the recorded (not counted) violations.
const keptViolations = 100

func (a *InvariantAuditor) report(now float64, kind, format string, args ...any) error {
	viol := Violation{Time: now, Kind: kind, Detail: fmt.Sprintf(format, args...)}
	a.total++
	if len(a.violations) < keptViolations {
		a.violations = append(a.violations, viol)
	}
	if a.Strict {
		return fmt.Errorf("simobs: invariant violated: %s", viol)
	}
	return nil
}

// Observe implements sim.Observer: it checks each processed event, each
// completion and each pop, and scans the final state once more at the
// run's end so runs that end between sampling points still get an
// end-state audit.
func (a *InvariantAuditor) Observe(v sim.View, ev *sim.Event) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch ev.Kind {
	case sim.OnStep:
		return a.step(v, ev.Now)
	case sim.OnComplete:
		return a.complete(v, &ev.Complete)
	case sim.OnPop:
		return a.pop(v, &ev.Pop)
	case sim.OnDone:
		a.fullScans++
		return a.scan(v, ev.Now)
	}
	return nil
}

// step runs the monotonicity checks and (sampled) the full-state scan.
// Callers hold a.mu, as for every check below.
func (a *InvariantAuditor) step(v sim.View, now float64) error {
	a.events++
	if a.started {
		if now < a.lastTime {
			if err := a.report(now, "time-monotonicity",
				"clock went backwards: %.9f after %.9f", now, a.lastTime); err != nil {
				return err
			}
		}
		if e := v.EnergyJ(); e < a.lastEnergy-1e-9 {
			if err := a.report(now, "energy-monotonicity",
				"energy decreased: %.9f J after %.9f J", e, a.lastEnergy); err != nil {
				return err
			}
		}
	}
	a.started = true
	a.lastTime = now
	a.lastEnergy = v.EnergyJ()

	every := a.Every
	if every < 1 {
		every = 1
	}
	if a.events%int64(every) != 0 {
		return nil
	}
	a.fullScans++
	return a.scan(v, now)
}

// scan holds the engine's machines to the pool: a slot runs a task exactly
// when the pool has it occupied by that task's application, a down machine
// runs nothing, and no running task has negative work left. The pool's
// own index is re-derived by its Check.
func (a *InvariantAuditor) scan(v sim.View, now float64) error {
	for m := 0; m < v.Machines(); m++ {
		for s := 0; s < sched.SlotsPerMachine; s++ {
			app, workLeft, running := v.Slot(m, s)
			if occupant, occupied := v.PoolOccupant(m, s); occupied != running || occupant != app {
				if err := a.report(now, "pool-consistency",
					"slot %d/%d runs %q (running=%v) but the pool has it occupied by %q (occupied=%v)",
					m, s, app, running, occupant, occupied); err != nil {
					return err
				}
			}
			if running && v.MachineDown(m) {
				if err := a.report(now, "fault-consistency",
					"machine %d is down but slot %d runs %q", m, s, app); err != nil {
					return err
				}
			}
			if running && workLeft < -1e-9 {
				if err := a.report(now, "work-conservation",
					"slot %d/%d task %q has negative remaining work %.9g", m, s, app, workLeft); err != nil {
					return err
				}
			}
		}
	}
	if err := v.PoolCheck(); err != nil {
		return a.report(now, "pool-consistency", "%v", err)
	}
	return nil
}

// complete checks that the finished task's remaining work settled to
// zero: the pre-clamp residual must vanish within a float tolerance that
// scales with the task's runtime (each settle step accumulates rounding).
func (a *InvariantAuditor) complete(v sim.View, c *sim.Completion) error {
	a.completes++
	res := c.Residual
	if res < 0 {
		res = -res
	}
	if tol := 1e-6 * (1 + c.Record.Runtime()); res > tol {
		return a.report(v.Now(), "work-conservation",
			"task %d (%s) completed with residual work %.9g (tolerance %.3g)",
			c.Record.Task.ID, c.Record.Task.App, c.Residual, tol)
	}
	return nil
}

// pop checks FIFO fairness of AnyCategory pops: the popped slot must have
// been the longest-free, so no slot still free may carry an older stamp.
func (a *InvariantAuditor) pop(v sim.View, p *sim.PopInfo) error {
	if p.Category != sched.AnyCategory {
		return nil
	}
	a.popChecks++
	for m := 0; m < v.Machines(); m++ {
		for s := 0; s < sched.SlotsPerMachine; s++ {
			if gen, free := v.PoolFreeGen(m, s); free && gen < p.FreeGen {
				return a.report(v.Now(), "pop-fairness",
					"AnyCategory pop returned %d/%d (freed at %d); %d/%d has been free since %d",
					p.Machine, p.Slot, p.FreeGen, m, s, gen)
			}
		}
	}
	return nil
}

// Total returns the number of violations found (including unrecorded ones).
func (a *InvariantAuditor) Total() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// Summary renders a one-paragraph audit report.
func (a *InvariantAuditor) Summary() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d events, %d full scans, %d completions, %d AnyCategory pops checked: ",
		a.events, a.fullScans, a.completes, a.popChecks)
	if a.total == 0 {
		b.WriteString("0 violations")
		return b.String()
	}
	fmt.Fprintf(&b, "%d VIOLATIONS", a.total)
	for i, v := range a.violations {
		if i == 10 {
			fmt.Fprintf(&b, "\n  ... (%d more)", a.total-10)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return b.String()
}
