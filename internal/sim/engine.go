package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tracon/internal/fault"
	"tracon/internal/sched"
)

// Config describes one simulation run.
type Config struct {
	// Machines is the number of physical machines (two VMs each).
	Machines int
	// Scheduler is the policy under test.
	Scheduler sched.Scheduler
	// Table is the measured ground truth the simulator replays.
	Table *InterferenceTable
	// FlushTimeout bounds how long a batch scheduler may hold a partial
	// queue before scheduling it anyway (seconds). Zero means the default
	// of 30 s. Without it, a trickle of arrivals would starve under a
	// batch policy waiting for a full queue.
	FlushTimeout float64
	// DropRecords discards per-task records, keeping only aggregates —
	// needed for the multi-million-task scalability runs.
	DropRecords bool
	// Power is the per-machine power model for energy accounting; the zero
	// value takes DefaultPower.
	Power PowerModel
	// Observer, when non-nil, receives every lifecycle event of the run
	// (see observe.go). nil costs one branch per emission point, and
	// observers must not perturb the simulation's outputs.
	Observer Observer
	// Faults, when non-nil, injects the plan's deterministic failures into
	// the run (see fault.go): machine crash/recover windows, per-slot
	// slowdowns, probabilistic attempt failures, per-attempt timeouts, and
	// bounded retry-with-backoff. nil — and a plan that injects nothing —
	// leaves the simulation byte-identical to a fault-free run.
	Faults *fault.Plan
}

// vmsPerMachine is fixed at the paper's configuration ("each physical
// machine supports two virtual machines").
const vmsPerMachine = 2

type eventKind uint8

const (
	evArrival eventKind = iota
	evCompletion
	evFlush
	evMachineDown
	evMachineUp
	evSlowChange
	evRetry
	evTimeout
)

// event is 32 bytes: the heap moves events on every push and pop, so
// anything an event refers to lives elsewhere and the event holds a ref.
type event struct {
	time float64
	seq  int64 // tie-break for determinism
	// gen is the completion or timeout generation guard, or for evRetry the
	// retried task's backlog ref (see task).
	gen     int64
	machine int32
	slot    int8
	kind    eventKind
}

// eventHeap is a binary min-heap of events ordered by (time, seq). It is
// typed rather than a container/heap.Interface so a push or pop does not
// box its event. Sequence numbers are unique, so the order is total and
// the pop sequence does not depend on the sifting details.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the earliest event; the heap must not be empty.
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && s.less(right, child) {
			child = right
		}
		if !s.less(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	*h = s[:n]
	return s[n]
}

type runningTask struct {
	task       sched.Task
	app        int     // task.App's table ordinal
	workLeft   float64 // remaining work in solo-seconds
	rate       float64 // current progress rate
	lastUpdate float64
	start      float64
	gen        int64
	placeGen   int64   // placement generation guarding timeout events (faults)
	predicted  float64 // runtime forecast frozen at placement (observers)
	rawLeft    float64 // last pre-clamp workLeft from settle (observers)
}

type machineState struct {
	slots        [vmsPerMachine]*runningTask
	powerW       float64
	lastEnergyAt float64
}

// TaskRecord is the outcome of one completed task.
type TaskRecord struct {
	Task    sched.Task
	Start   float64
	Finish  float64
	Machine int
	Slot    int
}

// Runtime is the task's execution time (queueing excluded, as in eq. 3).
func (r TaskRecord) Runtime() float64 { return r.Finish - r.Start }

// Wait is the queueing delay before the task started.
func (r TaskRecord) Wait() float64 { return r.Start - r.Task.Arrival }

// Results aggregates a simulation run.
type Results struct {
	Scheduler string
	// Completed holds per-task records (empty when Config.DropRecords).
	Completed []TaskRecord
	// CompletedCount is the number of completed tasks (valid always).
	CompletedCount int
	// TotalRuntime is Σ runtimes of completed tasks (eq. 3).
	TotalRuntime float64
	// TotalIOPS is Σ per-task average throughput (eq. 4).
	TotalIOPS float64
	// TotalWait is Σ queueing delays of completed tasks.
	TotalWait float64
	// Horizon is the simulated duration.
	Horizon float64
	// Submitted is the number of tasks offered to the system.
	Submitted int
	// EnergyJ is the integrated cluster energy in joules (see energy.go).
	EnergyJ float64
	// LastFinish is the completion time of the last finished task — the
	// makespan of a workflow run that starts at time zero.
	LastFinish float64

	// Fault-recovery accounting; all fields stay zero in fault-free runs.

	// FailedAttempts counts attempts that failed probabilistically.
	FailedAttempts int
	// Timeouts counts attempts evicted at their per-attempt deadline.
	Timeouts int
	// Evictions counts attempts orphaned by a machine crash.
	Evictions int
	// Retries counts re-placements scheduled after failed attempts.
	Retries int
	// Lost counts tasks abandoned after exhausting their attempt budget.
	Lost int
	// MachineDowns and MachineUps count machine crash/recover transitions.
	MachineDowns int
	MachineUps   int
}

// CompletedTasks returns the completed-task count as a float64. This is
// the T_S of Section 4.7: the paper reports it normalized against FIFO on
// the same arrivals and horizon, so the horizon divides out and the raw
// count is the right quantity. (It was previously named Throughput, which
// wrongly suggested a rate.)
func (r *Results) CompletedTasks() float64 { return float64(r.CompletedCount) }

// MeanRuntime returns the average execution time of completed tasks.
func (r *Results) MeanRuntime() float64 {
	if r.CompletedCount == 0 {
		return 0
	}
	return r.TotalRuntime / float64(r.CompletedCount)
}

// MeanWait returns the average queueing delay of completed tasks.
func (r *Results) MeanWait() float64 {
	if r.CompletedCount == 0 {
		return 0
	}
	return r.TotalWait / float64(r.CompletedCount)
}

// Engine runs one simulation.
//
// Arrivals are not events: they stream from a cursor over the time-ordered
// arrival slice, so the event heap holds only pending work — completions,
// the armed flush, fault boundaries, timeouts and retries.
type Engine struct {
	cfg      Config
	machines []machineState
	pool     *sched.FreePool
	events   eventHeap
	deps     *depState
	// arrivals is the run's input in (Arrival, input index) order;
	// arrivals[next:] have not arrived yet.
	arrivals []sched.Task
	next     int
	// extra holds the tasks the backlog references that are not arrivals
	// as given: retried and released tasks, whose Arrival is rewritten.
	extra []sched.Task
	// queue is the backlog as task refs (see task); live region is
	// queue[qhead:].
	queue []int
	qhead int
	// batch, counts and placed are the scheduling pass's buffers, reused
	// across passes.
	batch   []sched.Task
	counts  sched.Counts
	placed  map[int64]bool
	now     float64
	seq     int64
	genSeq  int64
	results Results
	table   *InterferenceTable
	// nextFlushAt is the armed flush wake-up's time (+Inf when none). The
	// engine keeps at most one flush armed — the head task's deadline — so
	// the event heap stays O(machines + pending completions, fault
	// boundaries and retries) instead of growing one flush per enqueued
	// task.
	nextFlushAt float64
	// naiveFlush restores the pre-optimization one-flush-per-enqueue
	// behaviour; the flush-equivalence test uses it to prove the suppressed
	// schedule is byte-identical to the naive one.
	naiveFlush bool
	// Fault-injection state (allocated only when Config.Faults is set).
	down      []bool        // machine index → currently crashed
	downCount int           // number of crashed machines
	attempts  map[int64]int // task ID → placement attempts made so far
	// obsErr is the observer's first error; see observe.
	obsErr error
}

// NewEngine validates the config and prepares an idle cluster.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("sim: need at least one machine")
	}
	if cfg.Scheduler == nil || cfg.Table == nil {
		return nil, fmt.Errorf("sim: scheduler and table are required")
	}
	if cfg.FlushTimeout <= 0 {
		cfg.FlushTimeout = 30
	}
	if cfg.Power == (PowerModel{}) {
		cfg.Power = DefaultPower()
	}
	e := &Engine{
		cfg:         cfg,
		machines:    make([]machineState, cfg.Machines),
		pool:        sched.NewIdleFreePool(cfg.Machines),
		placed:      map[int64]bool{},
		table:       cfg.Table,
		nextFlushAt: math.Inf(1),
	}
	e.results.Scheduler = cfg.Scheduler.Name()
	for m := 0; m < cfg.Machines; m++ {
		e.machines[m].powerW = cfg.Power.OffW
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.Machines, vmsPerMachine); err != nil {
			return nil, err
		}
		e.down = make([]bool, cfg.Machines)
		e.attempts = map[int64]int{}
	}
	return e, nil
}

// Run executes the arrivals until the horizon (Inf = run to completion of
// all tasks) and returns the results. Tasks still running or queued at the
// horizon are not counted as completed. The arrivals may come in any order
// (equal Arrival times keep their input order); Run does not modify the
// slice.
func (e *Engine) Run(arrivals []sched.Task, horizon float64) (*Results, error) {
	var err error
	if e.arrivals, err = e.timeOrdered(arrivals); err != nil {
		return nil, err
	}
	if e.deps, err = validateDAG(arrivals); err != nil {
		return nil, err
	}
	e.results.Submitted = len(arrivals)
	if e.cfg.Faults != nil {
		// Fault boundaries enter the heap in Timeline's deterministic order,
		// so their sequence numbers — and therefore same-instant tie-breaks —
		// are pure functions of the inputs. An arrival wins every tie with
		// them (see nextEvent).
		for _, b := range e.cfg.Faults.Timeline() {
			switch b.Kind {
			case fault.BoundaryDown:
				e.push(event{time: b.T, kind: evMachineDown, machine: int32(b.Machine), slot: -1})
			case fault.BoundaryUp:
				e.push(event{time: b.T, kind: evMachineUp, machine: int32(b.Machine), slot: -1})
			default:
				e.push(event{time: b.T, kind: evSlowChange, machine: int32(b.Machine), slot: int8(b.Slot)})
			}
		}
	}

	for e.obsErr == nil {
		ev, ref, ok := e.nextEvent()
		if !ok || ev.time > horizon {
			break
		}
		if ev.time < e.now-1e-9 {
			return nil, fmt.Errorf("sim: time went backwards: %v < %v", ev.time, e.now)
		}
		e.now = math.Max(e.now, ev.time)
		okind := observedKind(ev.kind)
		switch ev.kind {
		case evArrival:
			t := &e.arrivals[ref]
			held := !e.deps.ready(t.ID)
			if e.cfg.Observer != nil {
				e.observe(Event{Kind: OnArrival, Task: *t, Held: held})
			}
			if held {
				e.deps.hold(*t)
				continue
			}
			e.enqueue(ref, false)
		case evCompletion:
			m, s := int(ev.machine), int(ev.slot)
			rt := e.machines[m].slots[s]
			if rt == nil || rt.gen != ev.gen {
				continue // stale completion from before a repricing
			}
			if e.cfg.Faults != nil && e.cfg.Faults.TaskFails(rt.task.ID, e.attempts[rt.task.ID]) {
				// The attempt fails at the instant it would have completed.
				e.evictAttempt(m, s, FaultFail)
				okind = EvFail
			} else if err := e.complete(m, s); err != nil {
				return nil, err
			}
		case evFlush:
			// Just a wake-up; scheduling below. The armed flush is spent;
			// ensureFlush re-arms for the remaining head if needed.
			e.nextFlushAt = math.Inf(1)
			if e.cfg.Observer != nil {
				e.observe(Event{Kind: OnFlush})
			}
		case evMachineDown:
			e.machineDown(int(ev.machine))
		case evMachineUp:
			e.machineUp(int(ev.machine))
		case evSlowChange:
			// A slowdown window boundary: settle at the old rate, reprice at
			// the new one. A crashed machine has nothing running to reprice.
			if m := int(ev.machine); !e.down[m] {
				e.settle(m)
				e.reprice(m)
			}
		case evRetry:
			// Became schedulable now; Wait() measures queueing.
			e.task(int(ev.gen)).Arrival = e.now
			e.enqueue(int(ev.gen), false)
		case evTimeout:
			m, s := int(ev.machine), int(ev.slot)
			if rt := e.machines[m].slots[s]; rt == nil || rt.placeGen != ev.gen {
				continue // the attempt completed or was evicted first
			}
			e.evictAttempt(m, s, FaultTimeout)
		}
		if err := e.trySchedule(); err != nil {
			return nil, err
		}
		e.ensureFlush()
		if e.cfg.Observer != nil {
			e.observe(Event{Kind: OnStep, Step: okind})
		}
	}
	if !math.IsInf(horizon, 1) {
		e.now = horizon
	}
	e.results.Horizon = e.now
	e.flushEnergy(e.now)
	if e.cfg.Observer != nil {
		e.observe(Event{Kind: OnDone, Results: &e.results})
		if e.obsErr != nil {
			return nil, e.obsErr
		}
	}
	return &e.results, nil
}

// observe reports ev, stamped with the current time, to the observer;
// callers test Config.Observer first. The observer's first error sticks:
// nothing further is reported, the event loop stops before the next
// event, and Run returns the error.
func (e *Engine) observe(ev Event) {
	if e.obsErr != nil {
		return
	}
	ev.Now = e.now
	if err := e.cfg.Observer.Observe(View{e}, ev); err != nil {
		e.obsErr = fmt.Errorf("sim: observer: %w", err)
	}
}

// nextEvent takes the earliest pending event: the cursor's arrival when it
// is due no later than the heap's head, else the heap's head. ref is the
// arrival's index into e.arrivals (evArrival only). Arrivals win same-instant
// ties with every heap event.
func (e *Engine) nextEvent() (ev event, ref int, ok bool) {
	if e.next < len(e.arrivals) && (len(e.events) == 0 || e.arrivals[e.next].Arrival <= e.events[0].time) {
		ref = e.next
		e.next++
		return event{time: e.arrivals[ref].Arrival, kind: evArrival}, ref, true
	}
	if len(e.events) == 0 {
		return event{}, 0, false
	}
	return e.events.pop(), 0, true
}

// timeOrdered checks that the table knows every arrival's app and returns
// the arrivals in (Arrival, input index) order: the slice itself when it is
// already in time order (every generator emits it so), else a stably
// sorted copy.
func (e *Engine) timeOrdered(arrivals []sched.Task) ([]sched.Task, error) {
	ordered := true
	for i := range arrivals {
		if e.table.ords[arrivals[i].App] == 0 {
			return nil, fmt.Errorf("sim: unknown application %q", arrivals[i].App)
		}
		ordered = ordered && (i == 0 || arrivals[i].Arrival >= arrivals[i-1].Arrival)
	}
	if ordered {
		return arrivals, nil
	}
	sorted := append([]sched.Task(nil), arrivals...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Arrival < sorted[b].Arrival })
	return sorted, nil
}

// task resolves a backlog ref: an index into the arrivals below
// len(arrivals), into extra above.
func (e *Engine) task(ref int) *sched.Task {
	if ref < len(e.arrivals) {
		return &e.arrivals[ref]
	}
	return &e.extra[ref-len(e.arrivals)]
}

// addExtra stores a task that is not an arrival as given and returns its
// backlog ref.
func (e *Engine) addExtra(t sched.Task) int {
	e.extra = append(e.extra, t)
	return len(e.arrivals) + len(e.extra) - 1
}

// observedKind maps the internal event kind to the observer-facing one.
// A completion event whose attempt fails probabilistically is reported as
// EvFail by the event loop instead.
func observedKind(k eventKind) EventKind {
	switch k {
	case evArrival:
		return EvArrival
	case evCompletion:
		return EvCompletion
	case evMachineDown:
		return EvMachineDown
	case evMachineUp:
		return EvMachineUp
	case evSlowChange:
		return EvSlowChange
	case evRetry:
		return EvRetry
	case evTimeout:
		return EvTimeout
	default:
		return EvFlush
	}
}

// enqueue adds a schedulable task to the backlog (released marks tasks a
// workflow-dependency completion just unblocked). Flush wake-ups (so a
// partial batch cannot starve waiting for a batch scheduler's queue to
// fill) are armed by ensureFlush after the scheduling pass.
func (e *Engine) enqueue(ref int, released bool) {
	if e.cfg.Observer != nil {
		e.observe(Event{Kind: OnEnqueue, Task: *e.task(ref), Released: released})
	}
	e.queue = append(e.queue, ref)
	// Compact the backlog when the dead prefix dominates.
	if e.qhead > 4096 && e.qhead*2 > len(e.queue) {
		e.queue = append(e.queue[:0], e.queue[e.qhead:]...)
		e.qhead = 0
	}
	if e.naiveFlush {
		e.push(event{time: e.now + e.cfg.FlushTimeout, kind: evFlush})
	}
}

// ensureFlush keeps exactly one flush wake-up armed at the backlog head's
// deadline (arrival + FlushTimeout). Arming one flush per enqueued task —
// the previous scheme — bloated the event heap O(tasks); one armed flush
// gives the identical schedule because the backlog is ordered by arrival,
// so the head's deadline is always the earliest one, and a flush at any
// later queued task's deadline would find the head already over its
// timeout and force the same scheduling pass.
func (e *Engine) ensureFlush() {
	if e.naiveFlush || e.backlog() == 0 {
		return
	}
	deadline := e.task(e.queue[e.qhead]).Arrival + e.cfg.FlushTimeout
	// deadline <= now means the head is already past its timeout and the
	// scheduling pass that just ran could not place it (no free slots or
	// the policy declined); a wake-up would re-run the same decision on the
	// same state. The next arrival or completion re-triggers scheduling,
	// exactly as the per-task scheme behaved once its flushes were spent.
	if deadline <= e.now || e.nextFlushAt <= deadline {
		return
	}
	e.push(event{time: deadline, kind: evFlush})
	e.nextFlushAt = deadline
}

func (e *Engine) push(ev event) {
	e.seq++
	ev.seq = e.seq
	e.events.push(ev)
}

// settle brings a machine's running tasks (and energy meter) up to the
// current time.
func (e *Engine) settle(m int) {
	e.settleEnergy(m)
	for _, rt := range e.machines[m].slots {
		if rt == nil {
			continue
		}
		rt.workLeft -= rt.rate * (e.now - rt.lastUpdate)
		rt.rawLeft = rt.workLeft // pre-clamp, for work-conservation audits
		if rt.workLeft < 0 {
			rt.workLeft = 0
		}
		rt.lastUpdate = e.now
	}
}

// reprice recomputes both slots' progress rates after a membership change
// and schedules fresh completion events.
func (e *Engine) reprice(m int) {
	ms := &e.machines[m]
	for s, rt := range ms.slots {
		if rt == nil {
			continue
		}
		nb := 0
		if other := ms.slots[1-s]; other != nil {
			nb = other.app
		}
		rt.rate = e.table.rate[rt.app*e.table.n+nb]
		if rt.rate <= 0 {
			rt.rate = 1e-9
		}
		if e.cfg.Faults != nil {
			// A slowdown window dilates the rate; factor 0 is a full stall.
			rt.rate *= e.cfg.Faults.RateFactor(m, s, e.now)
		}
		if e.cfg.Observer != nil {
			e.observe(Event{Kind: OnSegment, Segment: Segment{
				Machine: m, Slot: s, TaskID: rt.task.ID, App: rt.task.App,
				Rate: rt.rate, Neighbour: e.table.apps[nb], WorkLeft: rt.workLeft,
			}})
		}
		// Generations are engine-global: a per-task counter would collide
		// with stale events left behind by a previous occupant of the slot.
		e.genSeq++
		rt.gen = e.genSeq
		if rt.rate <= 0 {
			// Fully stalled: no completion is schedulable (it would land at
			// an absurd pseudo-time and drag the horizon there when it popped
			// stale). The slowdown window's end boundary reprices the slot.
			continue
		}
		e.push(event{time: e.now + rt.workLeft/rt.rate, kind: evCompletion, machine: int32(m), slot: int8(s), gen: rt.gen})
	}
}

// complete finishes the task in (m, slot), records it, frees the VM and
// reprices the survivor.
func (e *Engine) complete(m, slot int) error {
	e.settle(m)
	ms := &e.machines[m]
	rt := ms.slots[slot]
	if rt == nil {
		return fmt.Errorf("sim: completion on empty slot %d/%d", m, slot)
	}
	ms.slots[slot] = nil
	rec := TaskRecord{Task: rt.task, Start: rt.start, Finish: e.now, Machine: m, Slot: slot}
	if e.cfg.Observer != nil {
		e.observe(Event{Kind: OnComplete, Complete: Completion{Record: rec, Predicted: rt.predicted, Residual: rt.rawLeft}})
	}
	// Release any workflow tasks this completion unblocks.
	for _, released := range e.deps.complete(rt.task.ID) {
		released.Arrival = e.now // became schedulable now; Wait() measures queueing
		e.enqueue(e.addExtra(released), true)
	}
	if e.now > e.results.LastFinish {
		e.results.LastFinish = e.now
	}
	e.results.CompletedCount++
	e.results.TotalRuntime += rec.Runtime()
	e.results.TotalWait += rec.Wait()
	if !e.cfg.DropRecords {
		e.results.Completed = append(e.results.Completed, rec)
	}
	if ops := e.table.ops[rt.app]; ops > 0 && rec.Runtime() > 0 {
		e.results.TotalIOPS += ops / rec.Runtime()
	}

	// Pool bookkeeping: the freed slot's category is the survivor's app;
	// if the survivor slot is itself free, the whole machine is idle and
	// both slots are empty-category.
	other := ms.slots[1-slot]
	if other != nil {
		e.pool.SetFree(m, slot, other.task.App)
	} else {
		e.pool.SetFree(m, slot, sched.EmptyCategory)
		if _, free := e.pool.Category(m, 1-slot); free {
			e.pool.SetFree(m, 1-slot, sched.EmptyCategory)
		}
	}
	e.reprice(m)
	e.settleEnergy(m) // re-sample power under the new membership
	return nil
}

// place starts a task on a concrete VM.
func (e *Engine) place(t sched.Task, m, slot int) error {
	ms := &e.machines[m]
	if ms.slots[slot] != nil {
		return fmt.Errorf("sim: slot %d/%d already occupied", m, slot)
	}
	e.settle(m)
	a := e.table.ords[t.App]
	ms.slots[slot] = &runningTask{task: t, app: a, workLeft: e.table.soloRT[a], lastUpdate: e.now, start: e.now}
	// The sibling slot, if free, is now neighboured by this app.
	if _, free := e.pool.Category(m, 1-slot); free {
		e.pool.SetFree(m, 1-slot, t.App)
	}
	// The placement-time neighbour, captured before reprice (which only
	// recomputes rates) for the placement trace.
	nb := 0
	if other := ms.slots[1-slot]; other != nil {
		nb = other.app
	}
	if e.cfg.Faults != nil {
		e.attempts[t.ID]++
		e.genSeq++
		ms.slots[slot].placeGen = e.genSeq
		if to := e.cfg.Faults.TaskTimeout; to > 0 {
			// The deadline is armed once per attempt and guarded by placeGen,
			// which (unlike gen) survives repricing. It is pushed before the
			// reprice below ever pushes the attempt's completion event, and
			// repricing only re-pushes completions with later sequence
			// numbers — so a timeout landing at the same instant as the
			// completion deterministically wins.
			e.push(event{time: e.now + to, kind: evTimeout, machine: int32(m), slot: int8(slot), gen: e.genSeq})
		}
	}
	e.reprice(m)
	// Freeze the placement-time runtime forecast for observers (reprice
	// just set the rate under the placement's neighbour).
	rt := ms.slots[slot]
	if rt.rate > 0 {
		rt.predicted = rt.workLeft / rt.rate
	} else {
		// Placed into a fully stalled slowdown window: forecast at the
		// undilated rate — a forecast of +Inf would be meaningless and
		// unencodable in the JSON trace.
		base := e.table.rate[a*e.table.n+nb]
		if base <= 0 {
			base = 1e-9
		}
		rt.predicted = rt.workLeft / base
	}
	if e.cfg.Observer != nil {
		e.observe(Event{Kind: OnPlace, Place: PlaceInfo{
			Task: t, Machine: m, Slot: slot, Neighbour: e.table.apps[nb],
			Work: rt.workLeft, Predicted: rt.predicted,
		}})
	}
	e.settleEnergy(m) // re-sample power under the new membership
	return nil
}

// trySchedule runs the scheduling policy against the current queue.
func (e *Engine) trySchedule() error {
	q := e.cfg.Scheduler.BatchSize()
	for e.backlog() > 0 && e.pool.FreeSlots() > 0 {
		n := e.backlog()
		ready := n >= q || e.now-e.task(e.queue[e.qhead]).Arrival >= e.cfg.FlushTimeout-1e-9
		if !ready {
			return nil
		}
		batchLen := q
		if batchLen > n {
			batchLen = n
		}
		e.batch = e.batch[:0]
		for _, ref := range e.queue[e.qhead : e.qhead+batchLen] {
			e.batch = append(e.batch, *e.task(ref))
		}
		batch := e.batch
		// Crashed machines are not capacity (downCount is zero without faults).
		load := sched.Load{TotalSlots: (e.cfg.Machines - e.downCount) * vmsPerMachine, Queued: n}
		e.counts = e.pool.Counts(e.counts)
		placements, err := e.decide(batch, load)
		if err != nil {
			return err
		}
		if len(placements) == 0 {
			return nil
		}
		clear(e.placed)
		for _, p := range placements {
			m, slot, err := e.pop(p.Category)
			if err != nil {
				return fmt.Errorf("sim: scheduler %s emitted unexecutable placement %+v: %w",
					e.cfg.Scheduler.Name(), p, err)
			}
			if err := e.place(p.Task, m, slot); err != nil {
				return err
			}
			e.placed[p.Task.ID] = true
		}
		// Keep the unplaced batch members at the front of the backlog,
		// preserving order — O(batch), never O(backlog).
		refs := e.queue[e.qhead : e.qhead+batchLen]
		w := batchLen
		for i := batchLen - 1; i >= 0; i-- {
			if !e.placed[e.task(refs[i]).ID] {
				w--
				refs[w] = refs[i]
			}
		}
		e.qhead += w
		if len(placements) < batchLen {
			return nil // cluster full; wait for completions
		}
	}
	return nil
}

// decide runs the policy on the batch; with an observer attached it times
// the call and reports it.
func (e *Engine) decide(batch []sched.Task, load sched.Load) ([]sched.Placement, error) {
	if e.cfg.Observer == nil {
		return e.cfg.Scheduler.Schedule(batch, e.counts, load)
	}
	t0 := time.Now()
	placements, err := e.cfg.Scheduler.Schedule(batch, e.counts, load)
	if err == nil {
		e.observe(Event{Kind: OnDecision, Decision: Decision{Batch: len(batch), Placed: len(placements), Wall: time.Since(t0)}})
	}
	return placements, err
}

// pop resolves a placement category to a free slot. With an observer
// attached it first snapshots the pool's longest-free slot — what the
// FIFO-over-VMs contract demands an AnyCategory pop return, so the auditor
// can hold the pop to it — and then reports the pop.
func (e *Engine) pop(category string) (machine, slot int, err error) {
	if e.cfg.Observer == nil {
		return e.pool.Pop(category)
	}
	p := PopInfo{Category: category}
	if category == sched.AnyCategory {
		p.OldestMachine, p.OldestSlot, p.OldestOK = e.pool.OldestFree()
	}
	p.Machine, p.Slot, p.FreeGen, err = e.pool.PopTraced(category)
	if err == nil {
		e.observe(Event{Kind: OnPop, Pop: p})
	}
	return p.Machine, p.Slot, err
}

func (e *Engine) backlog() int { return len(e.queue) - e.qhead }
