// Package sched implements TRACON's interference-aware schedulers
// (Sec. 3.2): FIFO (the paper's baseline), MIOS (minimum interference
// online scheduler, Algorithm 1), MIBS (minimum interference batch
// scheduler, Algorithm 2) and MIX (Algorithm 3), each in a runtime-
// minimizing and a throughput-maximizing variant.
//
// Schedulers are pure decision procedures: given a batch of queued tasks
// and the pool of free VMs (summarized by the application occupying each
// candidate machine's other VM), they emit placements. The discrete-event
// simulator in internal/sim executes placements and maintains the pool.
package sched

// Task is one unit of work: an instance of a profiled application.
type Task struct {
	// ID is unique per simulation.
	ID int64
	// App is the application (base benchmark name) the task runs.
	App string
	// Arrival is the task's arrival time in seconds.
	Arrival float64
	// DependsOn lists task IDs that must complete before this task may be
	// scheduled — the edges of a data-intensive scientific workflow DAG.
	// Nil for independent tasks (the paper's evaluation scenarios).
	DependsOn []int64
}

// EmptyCategory is the free-pool category of VMs whose machine is fully
// idle.
const EmptyCategory = ""

// AnyCategory instructs the executor to take the lowest-indexed free VM
// regardless of its neighbour — the FIFO baseline's behaviour.
const AnyCategory = "*"

// Placement is a scheduling decision: run the task on a free VM whose
// co-resident application is Category (EmptyCategory for an idle machine,
// AnyCategory for "next free VM in index order").
type Placement struct {
	Task     Task
	Category string
}

// Objective selects what the interference-aware schedulers optimize:
// the paper's MIBS_RT minimizes total runtime, MIBS_IO maximizes total
// IOPS.
type Objective int

// The two objectives.
const (
	MinRuntime Objective = iota
	MaxIOPS
)

// String returns the paper's subscript for the objective.
func (o Objective) String() string {
	if o == MinRuntime {
		return "RT"
	}
	return "IO"
}

// Load describes cluster pressure at scheduling time; the scorers use it
// to decide how much an idle machine's future neighbour should weigh.
type Load struct {
	// TotalSlots is the cluster's VM count.
	TotalSlots int
	// Queued is the backlog length, including the batch being scheduled.
	Queued int
}

// Fraction estimates the cluster's effective load in [0,1]: occupied slots
// plus waiting tasks, over capacity.
func (l Load) Fraction(counts Counts) float64 { return l.fraction(counts.Total()) }

// fraction is Fraction given the number of free VMs.
func (l Load) fraction(free int) float64 {
	if l.TotalSlots <= 0 {
		return 1
	}
	occupied := l.TotalSlots - free
	f := (float64(occupied) + float64(l.Queued)) / float64(l.TotalSlots)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Scheduler is a TRACON scheduling policy.
type Scheduler interface {
	// Name returns the policy label used in figures, e.g. "MIBS8".
	Name() string
	// BatchSize is the scheduling queue length (1 for online policies).
	BatchSize() int
	// Schedule decides placements for the batch given the free-pool
	// category counts and the cluster load. Implementations only read
	// counts, and must not retain counts after the call; they may leave
	// tasks unplaced when no free VM remains, and unplaced tasks stay queued.
	Schedule(batch []Task, counts Counts, load Load) ([]Placement, error)
}

// Counts summarizes the free pool: how many free VMs exist per co-resident
// application category.
type Counts map[string]int

// Clone copies the counts.
func (c Counts) Clone() Counts {
	out := make(Counts, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Total returns the number of free VMs.
func (c Counts) Total() int {
	t := 0
	for _, v := range c {
		t += v
	}
	return t
}
