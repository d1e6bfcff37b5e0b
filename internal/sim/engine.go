package sim

import (
	"fmt"
	"math"
	"sort"

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

// eventKind is a heap event's kind: the EventKind of the step it makes (a
// completion whose attempt fails steps as EvFail), held in one byte.
type eventKind uint8

const (
	evArrival     = eventKind(EvArrival)
	evCompletion  = eventKind(EvCompletion)
	evFlush       = eventKind(EvFlush)
	evMachineDown = eventKind(EvMachineDown)
	evMachineUp   = eventKind(EvMachineUp)
	evSlowChange  = eventKind(EvSlowChange)
	evRetry       = eventKind(EvRetry)
	evTimeout     = eventKind(EvTimeout)
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
	slots        [sched.SlotsPerMachine]*runningTask
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
	// pool is the placement inventory: who runs where, which machines are
	// up, and the free VMs the scheduler's categories resolve to.
	pool   *sched.FreePool
	events eventHeap
	deps   *depState
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
	// passes holds the scheduling passes' buffers.
	passes  sched.Passes
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
	// attempts maps task ID → placement attempts made so far (allocated
	// only when Config.Faults is set).
	attempts map[int64]int
	// ev is the one Event every emission fills and reports; obsErr is the
	// observer's first error. See observe.
	ev     Event
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
		table:       cfg.Table,
		nextFlushAt: math.Inf(1),
	}
	e.results.Scheduler = cfg.Scheduler.Name()
	for m := 0; m < cfg.Machines; m++ {
		e.machines[m].powerW = cfg.Power.OffW
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.Machines, sched.SlotsPerMachine); err != nil {
			return nil, err
		}
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

	end := 0.0 // the time of the last event that was not a flush
	for e.obsErr == nil {
		ev, ref, ok := e.nextEvent()
		if !ok || ev.time > horizon {
			break
		}
		if e.stale(ev) {
			continue // it changes nothing, so it must not move the clock
		}
		if ev.time < e.now-1e-9 {
			return nil, fmt.Errorf("sim: time went backwards: %v < %v", ev.time, e.now)
		}
		e.now = math.Max(e.now, ev.time)
		if ev.kind != evFlush {
			end = e.now
		}
		okind := EventKind(ev.kind)
		switch ev.kind {
		case evArrival:
			t := &e.arrivals[ref]
			held := !e.deps.ready(t.ID)
			if e.cfg.Observer != nil {
				e.ev.Task, e.ev.Held = *t, held
				e.observe(OnArrival)
			}
			if held {
				e.deps.hold(*t)
				continue
			}
			e.enqueue(ref, false)
		case evCompletion:
			m, s := int(ev.machine), int(ev.slot)
			if rt := e.machines[m].slots[s]; e.cfg.Faults != nil && e.cfg.Faults.TaskFails(rt.task.ID, e.attempts[rt.task.ID]) {
				// The attempt fails at the instant it would have completed.
				e.evictAttempt(m, s, FaultFail)
				okind = EvFail
			} else {
				e.complete(m, s)
			}
		case evFlush:
			// Just a wake-up; scheduling below. The armed flush is spent;
			// ensureFlush re-arms for the remaining head if needed.
			e.nextFlushAt = math.Inf(1)
			if e.cfg.Observer != nil {
				e.observe(OnFlush)
			}
		case evMachineDown:
			e.machineDown(int(ev.machine))
		case evMachineUp:
			e.machineUp(int(ev.machine))
		case evSlowChange:
			// A slowdown window boundary: settle at the old rate, reprice at
			// the new one. A crashed machine has nothing running to reprice.
			if m := int(ev.machine); e.pool.InService(m) {
				e.settle(m)
				e.reprice(m)
			}
		case evRetry:
			// Became schedulable now; Wait() measures queueing.
			e.task(int(ev.gen)).Arrival = e.now
			e.enqueue(int(ev.gen), false)
		case evTimeout:
			e.evictAttempt(int(ev.machine), int(ev.slot), FaultTimeout)
		}
		if err := e.passes.Drain(e.cfg.Scheduler, e.pool, queueView{e}, e.now, e.cfg.FlushTimeout); err != nil {
			return nil, err
		}
		e.ensureFlush()
		if e.cfg.Observer != nil {
			e.ev.Step = okind
			e.observe(OnStep)
		}
	}
	if e.obsErr != nil {
		return nil, e.obsErr
	}
	// A run to completion ends at its last event other than a flush: a
	// flush only wakes the passes, and a task it places has a later event
	// of its own.
	if !math.IsInf(horizon, 1) {
		end = horizon
	}
	e.now = end
	e.results.Horizon = e.now
	for m := range e.machines {
		e.settleEnergy(m) // bill every machine up to the end
	}
	if e.cfg.Observer != nil {
		e.ev.Results = &e.results
		e.observe(OnDone)
		if e.obsErr != nil {
			return nil, e.obsErr
		}
	}
	return &e.results, nil
}

// stale reports whether ev is a completion or a timeout whose attempt has
// since been repriced, completed or evicted.
func (e *Engine) stale(ev event) bool {
	if ev.kind != evCompletion && ev.kind != evTimeout {
		return false
	}
	rt := e.machines[ev.machine].slots[ev.slot]
	return rt == nil || ev.kind == evCompletion && rt.gen != ev.gen || ev.kind == evTimeout && rt.placeGen != ev.gen
}

// observe reports the engine's event, stamped with kind and the current
// time, to the observer; callers test Config.Observer first and fill the
// payload field kind selects. The observer's first error sticks: nothing
// further is reported, the event loop stops before the next event, and
// Run returns the error.
func (e *Engine) observe(kind Hook) {
	if e.obsErr != nil {
		return
	}
	e.ev.Kind, e.ev.Now = kind, e.now
	if err := e.cfg.Observer.Observe(View{e}, &e.ev); err != nil {
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

// enqueue adds a schedulable task to the backlog (released marks tasks a
// workflow-dependency completion just unblocked). Flush wake-ups (so a
// partial batch cannot starve waiting for a batch scheduler's queue to
// fill) are armed by ensureFlush after the scheduling pass.
func (e *Engine) enqueue(ref int, released bool) {
	if e.cfg.Observer != nil {
		e.ev.Task, e.ev.Released = *e.task(ref), released
		e.observe(OnEnqueue)
	}
	e.queue = append(e.queue, ref)
	// Compact the backlog when the dead prefix dominates.
	if e.qhead > 4096 && e.qhead*2 > len(e.queue) {
		e.queue = append(e.queue[:0], e.queue[e.qhead:]...)
		e.qhead = 0
	}
}

// ensureFlush keeps exactly one flush wake-up armed at the backlog head's
// deadline (arrival + FlushTimeout). One flush per enqueued task, as the
// reference engine in reference_test.go arms them, grows the event heap
// O(tasks); one armed flush gives the identical schedule because the
// backlog is ordered by arrival, so the head's deadline is always the
// earliest one, and a flush at any later queued task's deadline would find
// the head already over its timeout and force the same scheduling pass.
func (e *Engine) ensureFlush() {
	if e.backlog() == 0 {
		return
	}
	deadline := e.task(e.queue[e.qhead]).Arrival + e.cfg.FlushTimeout
	// deadline <= now means the head is already past its timeout and the
	// scheduling pass that just ran could not place it (no free slots or
	// the policy declined); a wake-up would re-run the same decision on the
	// same state. The next arrival or completion re-triggers scheduling,
	// exactly as one flush per task behaves once its flushes are spent.
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
		rt.rate = e.table.pairRate(rt.app, nb)
		if e.cfg.Faults != nil {
			// A slowdown window dilates the rate; factor 0 is a full stall.
			rt.rate *= e.cfg.Faults.RateFactor(m, s, e.now)
		}
		if e.cfg.Observer != nil {
			e.ev.Segment = Segment{
				Machine: m, Slot: s, TaskID: rt.task.ID, App: rt.task.App,
				Rate: rt.rate, Neighbour: e.table.apps[nb], WorkLeft: rt.workLeft,
			}
			e.observe(OnSegment)
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
func (e *Engine) complete(m, slot int) {
	e.settle(m)
	ms := &e.machines[m]
	rt := ms.slots[slot]
	ms.slots[slot] = nil
	rec := TaskRecord{Task: rt.task, Start: rt.start, Finish: e.now, Machine: m, Slot: slot}
	if e.cfg.Observer != nil {
		e.ev.Complete = Completion{Record: rec, Predicted: rt.predicted, Residual: rt.rawLeft}
		e.observe(OnComplete)
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

	e.pool.Vacate(m, slot)
	e.reprice(m)
	e.settleEnergy(m) // re-sample power under the new membership
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
	e.pool.Occupy(m, slot, t.App)
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
		rt.predicted = rt.workLeft / e.table.pairRate(a, nb)
	}
	if e.cfg.Observer != nil {
		e.ev.Place = PlaceInfo{
			Task: t, Machine: m, Slot: slot, Neighbour: e.table.apps[nb],
			Work: rt.workLeft, Predicted: rt.predicted,
		}
		e.observe(OnPlace)
	}
	e.settleEnergy(m) // re-sample power under the new membership
	return nil
}

// queueView is the engine as its scheduling passes see it (sched.Backlog):
// the queued tasks from qhead on.
type queueView struct{ *Engine }

func (b queueView) Len() int { return b.backlog() }

func (b queueView) Task(i int) sched.Task { return *b.task(b.queue[b.qhead+i]) }

func (b queueView) Decided(batch, placed int) {
	if b.cfg.Observer != nil {
		b.ev.Decision = Decision{Batch: batch, Placed: placed}
		b.observe(OnDecision)
	}
}

func (b queueView) Place(pos int, category string, m, slot int, freeGen int64) error {
	if b.cfg.Observer != nil {
		b.ev.Pop = PopInfo{Category: category, Machine: m, Slot: slot, FreeGen: freeGen}
		b.observe(OnPop)
	}
	return b.place(b.Task(pos), m, slot)
}

// Passed keeps the unplaced batch members at the front of the backlog in
// order: O(batch), never O(backlog).
func (b queueView) Passed(placed []bool) {
	refs, w := b.queue[b.qhead:b.qhead+len(placed)], len(placed)
	for i := len(placed) - 1; i >= 0; i-- {
		if !placed[i] {
			w--
			refs[w] = refs[i]
		}
	}
	b.qhead += w
}

func (e *Engine) backlog() int { return len(e.queue) - e.qhead }
