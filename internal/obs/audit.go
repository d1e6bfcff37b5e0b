package obs

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
//   - pool⟺machine consistency: a slot is free in the pool exactly when no
//     task occupies it on the machine, its category matches a co-resident
//     application (or Empty on an idle machine), and the pool's per-category
//     counts sum to its free-slot total;
//   - FIFO fairness: every AnyCategory pop returns the slot that had been
//     free the longest, per the pool's own pre-pop OldestFree snapshot.
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
		return fmt.Errorf("obs: invariant violated: %s", viol)
	}
	return nil
}

// Observe implements sim.Observer: it checks each processed event, each
// completion and each pop, and scans the final state once more at the
// run's end so runs that end between sampling points still get an
// end-state audit.
func (a *InvariantAuditor) Observe(v sim.View, ev sim.Event) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch ev.Kind {
	case sim.OnStep:
		return a.step(v, ev.Now)
	case sim.OnComplete:
		return a.complete(v, ev.Complete)
	case sim.OnPop:
		return a.pop(v, ev.Pop)
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

// scan validates the pool-vs-machine slot state and work conservation for
// every slot in the cluster.
func (a *InvariantAuditor) scan(v sim.View, now float64) error {
	machines := v.Machines()
	slotsPer := 0
	if machines > 0 {
		slotsPer = v.TotalSlots() / machines
	}
	freeSeen := 0
	countsSeen := sched.Counts{}
	for m := 0; m < machines; m++ {
		if v.MachineDown(m) {
			// A crashed machine must be fully evacuated: nothing running,
			// nothing offered to the pool.
			for s := 0; s < slotsPer; s++ {
				if app, _, running := v.Slot(m, s); running {
					if err := a.report(now, "fault-consistency",
						"machine %d is down but slot %d runs %q", m, s, app); err != nil {
						return err
					}
				}
				if cat, free := v.PoolCategory(m, s); free {
					if err := a.report(now, "fault-consistency",
						"machine %d is down but the pool lists slot %d free (category %q)", m, s, cat); err != nil {
						return err
					}
				}
			}
			continue
		}
		// Apps running on this machine, for category validation.
		var neighbours []string
		for s := 0; s < slotsPer; s++ {
			if app, _, running := v.Slot(m, s); running {
				neighbours = append(neighbours, app)
			}
		}
		for s := 0; s < slotsPer; s++ {
			app, workLeft, running := v.Slot(m, s)
			cat, free := v.PoolCategory(m, s)
			if running && free {
				if err := a.report(now, "pool-consistency",
					"slot %d/%d runs %q but the pool lists it free (category %q)", m, s, app, cat); err != nil {
					return err
				}
			}
			if !running && !free {
				if err := a.report(now, "pool-consistency",
					"slot %d/%d is idle but the pool does not list it free", m, s); err != nil {
					return err
				}
			}
			if running && workLeft < -1e-9 {
				if err := a.report(now, "work-conservation",
					"slot %d/%d task %q has negative remaining work %.9g", m, s, app, workLeft); err != nil {
					return err
				}
			}
			if free {
				freeSeen++
				countsSeen[cat]++
				if cat == sched.EmptyCategory {
					if len(neighbours) != 0 {
						if err := a.report(now, "pool-category",
							"slot %d/%d is Empty-category but machine runs %v", m, s, neighbours); err != nil {
							return err
						}
					}
				} else if !contains(neighbours, cat) {
					if err := a.report(now, "pool-category",
						"slot %d/%d category %q matches no co-resident app %v", m, s, cat, neighbours); err != nil {
						return err
					}
				}
			}
		}
	}
	if got := v.FreeSlots(); got != freeSeen {
		if err := a.report(now, "pool-consistency",
			"pool reports %d free slots but %d are free per slot state", got, freeSeen); err != nil {
			return err
		}
	}
	counts := v.PoolCounts()
	for cat, n := range countsSeen {
		if counts[cat] != n {
			if err := a.report(now, "pool-consistency",
				"pool counts %d free slots in category %q, slot state says %d", counts[cat], cat, n); err != nil {
				return err
			}
		}
	}
	for cat, n := range counts {
		if n != 0 && countsSeen[cat] == 0 {
			if err := a.report(now, "pool-consistency",
				"pool counts %d free slots in category %q that slot state lacks", n, cat); err != nil {
				return err
			}
		}
	}
	return nil
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// complete checks that the finished task's remaining work settled to
// zero: the pre-clamp residual must vanish within a float tolerance that
// scales with the task's runtime (each settle step accumulates rounding).
func (a *InvariantAuditor) complete(v sim.View, c sim.Completion) error {
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

// pop checks FIFO fairness of AnyCategory pops against the pool's
// pre-pop longest-free snapshot.
func (a *InvariantAuditor) pop(v sim.View, p sim.PopInfo) error {
	if p.Category != sched.AnyCategory {
		return nil
	}
	a.popChecks++
	if !p.OldestOK {
		return a.report(v.Now(), "pop-fairness",
			"AnyCategory pop returned %d/%d but the pool had no free slot on record", p.Machine, p.Slot)
	}
	if p.Machine != p.OldestMachine || p.Slot != p.OldestSlot {
		return a.report(v.Now(), "pop-fairness",
			"AnyCategory pop returned %d/%d; the longest-free slot was %d/%d",
			p.Machine, p.Slot, p.OldestMachine, p.OldestSlot)
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
