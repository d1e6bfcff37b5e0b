package serve

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"tracon/internal/durable"
	"tracon/internal/model"
	"tracon/internal/obs"
	"tracon/internal/sched"
)

// ErrUnknownPlacement is returned for an ID the placer has never issued
// (or has already evicted from the finished ring).
var ErrUnknownPlacement = errors.New("serve: unknown placement")

// ErrNotPlaced is returned when completing a task that is not currently
// occupying a slot (still queued, already completed, or failed).
var ErrNotPlaced = errors.New("serve: placement is not in the placed state")

// ErrUnknownMachine is returned for a machine index outside the inventory.
var ErrUnknownMachine = errors.New("serve: unknown machine")

// ErrBadTransition is returned for a machine lifecycle operation that is
// invalid in the machine's current state (draining a down machine, reviving
// one that never died, ...).
var ErrBadTransition = errors.New("serve: invalid machine state transition")

// ErrQueueFull is returned when the admission bound refuses a submission:
// the backlog (plus whatever free capacity could still absorb it) is at
// the scaled queue bound. The HTTP layer maps it to 429 + Retry-After.
var ErrQueueFull = errors.New("serve: placement queue is full")

// Placement status values.
const (
	StatusQueued    = "queued"
	StatusPlaced    = "placed"
	StatusCompleted = "completed"
	StatusFailed    = "failed"
)

// Placement is the lifecycle record of one submitted task.
type Placement struct {
	ID  string `json:"id"`
	App string `json:"app"`
	// Status is queued, placed, completed or failed.
	Status string `json:"status"`
	// Machine and Slot locate the placement (-1 while queued).
	Machine int `json:"machine"`
	Slot    int `json:"slot"`
	// Neighbour is the application occupying the machine's other VM at
	// placement time ("" for an idle machine).
	Neighbour string `json:"neighbour"`
	// PredictedRuntime and PredictedIOPS are the active model's forecast
	// for this co-location, captured at placement time; completions report
	// observed values against them to drive drift detection.
	PredictedRuntime float64 `json:"predicted_runtime_s"`
	PredictedIOPS    float64 `json:"predicted_iops"`
	// Generation is the model generation that made the decision.
	Generation uint64 `json:"generation"`
	// Error carries the failure reason for StatusFailed.
	Error string `json:"error,omitempty"`
	// Retries counts how many times the task was re-queued after losing its
	// machine (kill re-placement).
	Retries int `json:"retries,omitempty"`
	// ReqID is the X-Request-Id of the submission that created the task,
	// joining the placement record (and its trace spans) back to the HTTP
	// request, its access-log line, and the client's own records.
	ReqID string `json:"request_id,omitempty"`

	// bg is the neighbour's characteristic vector at placement time, kept
	// for the retraining sample the completion observation turns into.
	bg []float64
	// idem is the idempotency key the submission was registered under (""
	// for server-minted request IDs). A resubmission carrying the same key
	// — a client retry across a daemon crash — returns this record instead
	// of creating a duplicate.
	idem string
}

// clone returns a copy safe to hand out after the placer lock is dropped.
func (p *Placement) clone() *Placement {
	c := *p
	c.bg = append([]float64(nil), p.bg...)
	return &c
}

// Machine lifecycle states. Up machines accept placements; drained
// (cordoned) machines finish their in-flight tasks but take no new ones;
// down (killed) machines have lost their in-flight tasks, which the placer
// re-queues for placement elsewhere.
const (
	MachineUp      = "up"
	MachineDrained = "drained"
	MachineDown    = "down"
)

// machine is one physical host: two VMs, per the testbed model. tasks
// holds the placement ID on each VM ("" when free); the application it
// runs is the pool's Occupant.
type machine struct {
	tasks [SlotsPerMachine]string
	state string
}

// SlotsPerMachine is the simulator's two-VM machine model.
const SlotsPerMachine = sched.SlotsPerMachine

// Placer owns the serving-side cluster state: the machine inventory, the
// FIFO backlog, and the placement records. The free-slot index is the
// simulator's own sched.FreePool, so the census a scheduling pass reads is
// O(categories), resolving a decision to a VM is O(log machines), and an
// AnyCategory (FIFO) pick takes the VM free the longest, exactly as in the
// simulator. A drained or down machine's free slots are simply held out of
// the pool (sim/fault.go's idiom).
//
// Every state change is an event, and every mutating operation is one
// critical section: it validates and decides under the one mutex, hands
// the events it journals to commitEventsLocked (apply.go), which applies
// them with the functions recovery replays them with, and then runs the
// scheduling passes (drainLocked, through the simulator's
// sched.Passes.Drain) before it lets go. No observer sees a task admitted
// but not yet offered to the scheduler. Model scoring runs under the lock
// because it is cheap — a pass reads the scorer's dense pair table — and
// the optimistic planner that once kept it outside discarded 19-43 % of
// its score calls under concurrent batch submitters (EXPERIMENTS.md, One
// lock hold per operation).
//
// Admission is enforced here, atomically with the admit commit: the scaled
// queue bound is checked and the task admitted under one critical section,
// so concurrent submits can never drive the backlog past the bound.
type Placer struct {
	models    *ModelSet
	admission *Admission // nil disables the queue bound
	// tracer records lifecycle spans (nil-safe; set by serve.New).
	tracer *serveTracer
	// journal receives every commit group, appended inside the same
	// critical section that applies it (nil-safe; set by recovery).
	journal *journal
	// clock times scheduling passes for the tracer; serve.New overrides it
	// with the configured clock.
	clock obs.Clock

	mu       sync.Mutex
	machines []machine
	// pool is the placement inventory the simulator uses too: the app on
	// each VM, which machines are up, and the index of free VMs. Every
	// write to machines[i].tasks or .state makes the matching pool call
	// (Occupy, Vacate, SetInService) beside it.
	pool       *sched.FreePool
	queue      []*Placement // the backlog: queued records, FIFO
	placements map[string]*Placement
	nextID     int64
	// dedup maps idempotency keys to placement IDs for as long as the
	// record itself is retained; entries leave with the finished ring.
	dedup map[string]string

	// done is the FIFO of finished (completed/failed) placement IDs; the
	// oldest records are dropped beyond doneCap so the map stays bounded.
	done    []string
	doneCap int

	// evbuf is the reusable buffer for commit groups; it does not leave the
	// lock. onCommit, when set, observes each group as it commits, before
	// the hold's append stamps Seq (the follower tests replay it).
	evbuf    []durable.Event
	onCommit func(evs []durable.Event)
	// passes holds the scheduling passes' buffers; view is the model view
	// a hold's passes score with, and passT0 the start of the current pass.
	passes sched.Passes
	view   ModelView
	passT0 time.Time
}

// DefaultCompletedCap bounds how many finished placement records are kept
// for GET /v1/placements/{id}.
const DefaultCompletedCap = 65536

// NewPlacer builds an empty inventory of machines. admission may be nil,
// in which case no queue bound is enforced.
func NewPlacer(models *ModelSet, admission *Admission, machines, completedCap int) (*Placer, error) {
	if machines <= 0 {
		return nil, fmt.Errorf("serve: need at least one machine, got %d", machines)
	}
	if completedCap <= 0 {
		completedCap = DefaultCompletedCap
	}
	p := &Placer{
		models:     models,
		admission:  admission,
		clock:      obs.Wall,
		machines:   make([]machine, machines),
		placements: map[string]*Placement{},
		dedup:      map[string]string{},
		doneCap:    completedCap,
	}
	p.resetInventoryLocked()
	return p, nil
}

// resetInventoryLocked returns every machine to up and idle and rebuilds
// the pool to match: every VM free, in index order, as the simulator
// boots. Boot and snapshot import are the only callers.
func (p *Placer) resetInventoryLocked() {
	p.pool = sched.NewIdleFreePool(len(p.machines))
	for i := range p.machines {
		p.machines[i] = machine{state: MachineUp}
	}
}

// unlock ends a hold that may have committed: the groups it staged reach
// the journal as one append (one fsync under always) before p.mu is released.
func (p *Placer) unlock() {
	p.journal.flush()
	p.mu.Unlock()
}

// setStateLocked moves machine mi to state; the pool takes it out of
// service or puts its free VMs back, stamped now.
func (p *Placer) setStateLocked(mi int, state string) {
	p.machines[mi].state = state
	p.pool.SetInService(mi, state == MachineUp)
}

// SubmitKeyed validates, admits, records and tries to place one task. The
// returned Placement is a copy; its status is placed when a slot was free
// (or the scheduler chose to use one) and queued otherwise. reqID is the
// originating request ID, which lands on the record and every span the task
// emits. A non-empty idempotency key that matches a retained record — a
// client retrying a submit it never saw acknowledged, possibly across a
// daemon crash — returns that record instead of admitting a duplicate. The
// dedup check, the admission bound, the admit commit and the scheduling
// passes share one critical section: at no instant can concurrent submits
// push the backlog past the scaled bound, and the admit event is journaled
// (and, under fsync=always, on disk) before the caller is acknowledged.
func (p *Placer) SubmitKeyed(app, reqID, key string) (*Placement, error) {
	view := p.models.View()
	if err := p.checkKnown(view, app); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.unlock()
	if rec := p.dedupLocked(key); rec != nil {
		return rec.clone(), nil
	}
	if p.admitBudgetLocked() == 0 {
		p.tracer.reject(reqID, app, "queue full")
		return nil, ErrQueueFull
	}
	id := taskID(p.nextID + 1)
	if err := p.commitEventLocked(durable.Event{
		Kind: durable.EvAdmit, Task: id, App: app, Req: reqID, Dedup: key, Machine: -1, Slot: -1,
	}); err != nil {
		return nil, err
	}
	rec := p.placements[id]
	p.tracer.admit(reqID, id, app)
	if err := p.drainLocked(); err != nil {
		return nil, err
	}
	return rec.clone(), nil
}

// BatchOutcome is one task's result inside a SubmitBatch: either a
// placement record or a per-task error (unknown application, queue full).
type BatchOutcome struct {
	Placement *Placement
	Err       error
}

// SubmitBatch is SubmitBatchKeyed without request IDs or idempotency keys.
func (p *Placer) SubmitBatch(apps []string) ([]BatchOutcome, error) {
	return p.SubmitBatchKeyed(apps, nil, nil)
}

// SubmitBatchKeyed admits a whole batch and, in the same critical section,
// runs queue-aware scheduling passes over the combined backlog — the batch
// schedulers (MIBS/MIX) see every queued task at once instead of a stream
// of singletons. reqIDs and keys are positional with apps (nil or short
// slices leave the remainder untagged / unkeyed). Outcomes are per task
// and positional: unknown applications and tasks beyond the admission
// budget are rejected individually without failing the rest of the batch,
// and a task whose key matches a retained record (or an earlier task of
// this batch) returns that record without being re-admitted. The freshly
// admitted remainder commits as one batch_admit event, journaled with the
// placements in the hold's one append (one fsync). The returned error is global (a scheduling failure); per-task
// problems live in the slice.
func (p *Placer) SubmitBatchKeyed(apps, reqIDs, keys []string) ([]BatchOutcome, error) {
	view := p.models.View()
	out := make([]BatchOutcome, len(apps))
	refs := make([]durable.TaskRef, 0, len(apps))
	deduped := make([]bool, len(apps))

	p.mu.Lock()
	defer p.unlock()
	budget := p.admitBudgetLocked()
	for i, app := range apps {
		key := at(keys, i)
		if key != "" {
			if rec := p.dedupLocked(key); rec != nil {
				out[i].Placement = rec // live pointer; cloned below
				deduped[i] = true
				continue
			}
			if admittedUnder(refs, key) {
				deduped[i] = true // resolved through the dedup index after the commit
				continue
			}
		}
		if err := p.checkKnown(view, app); err != nil {
			out[i].Err = err
			continue
		}
		if budget == 0 {
			out[i].Err = ErrQueueFull
			continue
		}
		if budget > 0 {
			budget--
		}
		refs = append(refs, durable.TaskRef{
			Task: taskID(p.nextID + 1 + int64(len(refs))), App: app, Req: at(reqIDs, i), Dedup: key,
		})
	}
	var err error
	if len(refs) > 0 {
		err = p.commitEventLocked(durable.Event{
			Kind: durable.EvBatchAdmit, Tasks: refs, Machine: -1, Slot: -1,
		})
	}
	// Live pointers for now; cloned after the drain.
	next := 0
	for i, app := range apps {
		switch {
		case errors.Is(out[i].Err, ErrQueueFull):
			p.tracer.reject(at(reqIDs, i), app, "queue full")
		case out[i].Err != nil || out[i].Placement != nil:
		case deduped[i]:
			out[i].Placement = p.dedupLocked(at(keys, i))
		default:
			out[i].Placement = p.placements[refs[next].Task]
			p.tracer.admit(at(reqIDs, i), refs[next].Task, app)
			next++
		}
	}
	if err == nil && len(refs) > 0 {
		err = p.drainLocked()
	}
	for i := range out {
		if out[i].Placement != nil {
			out[i].Placement = out[i].Placement.clone()
		}
	}
	return out, err
}

// taskID mints the placement ID for admission number n.
func taskID(n int64) string {
	return string(strconv.AppendInt(append(make([]byte, 0, 24), "t-"...), n, 10))
}

// dedupLocked returns the retained record registered under an idempotency
// key, or nil.
func (p *Placer) dedupLocked(key string) *Placement {
	if key == "" {
		return nil
	}
	return p.placements[p.dedup[key]]
}

// admittedUnder reports whether an earlier task of the batch being decided
// already claimed key.
func admittedUnder(refs []durable.TaskRef, key string) bool {
	for i := range refs {
		if refs[i].Dedup == key {
			return true
		}
	}
	return false
}

// at returns xs[i], or "" past the end of a short positional slice.
func at(xs []string, i int) string {
	if i < len(xs) {
		return xs[i]
	}
	return ""
}

// checkKnown reproduces the library's typed error for an application the
// current generation cannot score, so the HTTP layer can map it to 400
// without a second lookup.
func (p *Placer) checkKnown(view ModelView, app string) error {
	if view.Known[app] {
		return nil
	}
	_, err := view.Lib.SoloRuntime(app)
	if err == nil {
		err = fmt.Errorf("%w: %q", model.ErrUnknownApp, app)
	}
	return err
}

// admitBudgetLocked returns how many more submissions the admission bound
// allows right now (-1 = unbounded). The budget counts the free
// schedulable slots as absorption: the invariant it maintains is that the
// backlog left after the draining pass never exceeds the scaled bound —
// on a full cluster (no free slots) that means the instantaneous queue
// depth itself never exceeds the bound.
func (p *Placer) admitBudgetLocked() int {
	if p.admission == nil {
		return -1
	}
	available, total := p.capacityLocked()
	bound := p.admission.ScaledBound(available, total)
	if bound < 0 {
		return -1
	}
	budget := bound + p.pool.FreeSlots() - len(p.queue)
	if budget < 0 {
		budget = 0
	}
	return budget
}

// Observation is a completion report: what the task actually experienced.
type Observation struct {
	Runtime float64 `json:"runtime_s"`
	IOPS    float64 `json:"iops"`
}

// Complete frees the task's slot and re-runs the scheduler over the
// backlog. It returns the completed record (a copy).
func (p *Placer) Complete(id string) (*Placement, error) {
	p.mu.Lock()
	defer p.unlock()
	rec, ok := p.placements[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlacement, id)
	}
	if rec.Status != StatusPlaced {
		return nil, fmt.Errorf("%w: %q is %s", ErrNotPlaced, id, rec.Status)
	}
	if p.machines[rec.Machine].tasks[rec.Slot] != id {
		return nil, fmt.Errorf("serve: slot bookkeeping corrupt for %q", id)
	}
	if err := p.commitEventLocked(durable.Event{
		Kind: durable.EvComplete, Task: id, Machine: rec.Machine, Slot: rec.Slot,
	}); err != nil {
		return nil, err
	}
	out := rec.clone()
	p.tracer.release("complete", out)
	// A drain failure is reported beside the record: the completion landed.
	return out, p.drainLocked()
}

// Get returns a copy of the placement record.
func (p *Placer) Get(id string) (*Placement, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.placements[id]
	if !ok {
		return nil, false
	}
	return rec.clone(), true
}

// QueueIDs returns the backlog's placement IDs in FIFO order (a copy).
// The deterministic simulation harness asserts re-queue ordering with it.
func (p *Placer) QueueIDs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return queueIDs(p.queue)
}

func queueIDs(queue []*Placement) []string {
	ids := make([]string, len(queue))
	for i, rec := range queue {
		ids[i] = rec.ID
	}
	return ids
}

// capacityLocked reports the schedulable slot count (VMs on up machines)
// against the full inventory; admission control scales its queue bound by
// the ratio, so a cluster that lost machines sheds load instead of queueing
// work it cannot place.
func (p *Placer) capacityLocked() (available, total int) {
	return SlotsPerMachine * p.pool.InServiceMachines(), SlotsPerMachine * len(p.machines)
}

// Snapshot is one consistent view of the placer's load state, taken under
// a single lock acquisition — the shedding decision and the Retry-After
// hint read queue depth and capacity from the same instant instead of
// mixing two lock acquisitions' worth of state.
type Snapshot struct {
	QueueDepth int `json:"queue_depth"`
	FreeSlots  int `json:"free_slots"`
	Available  int `json:"available_slots"`
	Total      int `json:"total_slots"`
}

// Snapshot captures queue depth, free slots and capacity atomically.
func (p *Placer) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	available, total := p.capacityLocked()
	return Snapshot{
		QueueDepth: len(p.queue),
		FreeSlots:  p.pool.FreeSlots(),
		Available:  available,
		Total:      total,
	}
}

// Drain cordons an up machine: its in-flight tasks finish, but it accepts
// no new placements until Undrain.
func (p *Placer) Drain(id int) error { return p.transition(id, durable.EvDrain) }

// Undrain returns a drained machine to service and re-runs the scheduler —
// the restored capacity may immediately absorb backlog.
func (p *Placer) Undrain(id int) error { return p.transition(id, durable.EvUndrain) }

// Revive returns a down machine to service and re-runs the scheduler.
func (p *Placer) Revive(id int) error { return p.transition(id, durable.EvRevive) }

// machineMoves is the {from, to} state change each lifecycle event makes:
// transition validates against it, applyMachine makes the move.
var machineMoves = map[string][2]string{
	durable.EvDrain:   {MachineUp, MachineDrained},
	durable.EvUndrain: {MachineDrained, MachineUp},
	durable.EvRevive:  {MachineDown, MachineUp},
}

// transition commits lifecycle event kind for machine id, then drains the
// backlog onto the capacity a return to service restores.
func (p *Placer) transition(id int, kind string) error {
	from, to := machineMoves[kind][0], machineMoves[kind][1]
	p.mu.Lock()
	defer p.unlock()
	if id < 0 || id >= len(p.machines) {
		return fmt.Errorf("%w: %d", ErrUnknownMachine, id)
	}
	if state := p.machines[id].state; state != from {
		return fmt.Errorf("%w: machine %d is %s, not %s", ErrBadTransition, id, state, from)
	}
	err := p.commitEventLocked(durable.Event{Kind: kind, Machine: id, Slot: -1})
	if err == nil && to == MachineUp {
		err = p.drainLocked()
	}
	return err
}

// Kill marks an up or drained machine down and re-queues its in-flight
// tasks at the FRONT of the backlog in slot order — they were admitted
// before anything still queued, and FIFO fairness survives the failure.
// It returns the number of tasks re-queued.
func (p *Placer) Kill(id int) (requeued int, err error) {
	p.mu.Lock()
	defer p.unlock()
	if id < 0 || id >= len(p.machines) {
		return 0, fmt.Errorf("%w: %d", ErrUnknownMachine, id)
	}
	if p.machines[id].state == MachineDown {
		return 0, fmt.Errorf("%w: machine %d is already down", ErrBadTransition, id)
	}
	var refs []durable.TaskRef
	for _, task := range p.machines[id].tasks {
		if rec := p.placements[task]; rec != nil {
			refs = append(refs, taskRef(rec))
			p.tracer.release("evict_requeue", rec)
		}
	}
	err = p.commitEventLocked(durable.Event{
		Kind: durable.EvKill, Machine: id, Slot: -1, Tasks: refs,
	})
	if err == nil {
		err = p.drainLocked()
	}
	return len(refs), err
}

// SlotView is the JSON shape of one VM in GET /v1/machines.
type SlotView struct {
	State string `json:"state"` // "free" | "busy"
	Task  string `json:"task,omitempty"`
	App   string `json:"app,omitempty"`
}

// MachineView is the JSON shape of one machine.
type MachineView struct {
	ID    int        `json:"id"`
	State string     `json:"state"` // "up" | "drained" | "down"
	Slots []SlotView `json:"slots"`
}

// Machines renders the inventory.
func (p *Placer) Machines() []MachineView {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]MachineView, len(p.machines))
	for i := range p.machines {
		mv := MachineView{ID: i, State: p.machines[i].state, Slots: make([]SlotView, SlotsPerMachine)}
		for j, task := range p.machines[i].tasks {
			if app, ok := p.pool.Occupant(i, j); ok {
				mv.Slots[j] = SlotView{State: "busy", Task: task, App: app}
			} else {
				mv.Slots[j] = SlotView{State: "free"}
			}
		}
		out[i] = mv
	}
	return out
}

// drainLocked runs a hold's scheduling passes through the simulator's
// sched.Passes.Drain, holding nothing back. It takes the model view once
// (a swap during the hold is ordered after it) and first fails, as one
// group, the queued tasks that view cannot score (possible after a swap to
// a different census) instead of wedging the queue head.
func (p *Placer) drainLocked() error {
	p.view = p.models.View()
	evs := p.evbuf[:0]
	for _, rec := range p.queue {
		if !p.view.Known[rec.App] {
			evs = append(evs, durable.Event{
				Kind: durable.EvFail, Task: rec.ID, Machine: -1, Slot: -1,
				Error: fmt.Sprintf("application %q unknown to generation %d library", rec.App, p.view.Gen),
			})
		}
	}
	_ = p.commitEventsLocked(evs, 0) // failing a queued record cannot fail to apply
	p.passT0 = p.clock.Now()
	if err := p.passes.Drain(p.view.Scheduler, p.pool, queueView{p}, 0, 0); err != nil {
		_ = p.commitEventsLocked(p.evbuf, len(p.evbuf)) // what the pass placed before the error
		return fmt.Errorf("serve: scheduling: %w", err)
	}
	return nil
}

// queueView is the placer as its scheduling passes see it (sched.Backlog).
// A pass applies each place event as its VM is popped and commits them as
// one group when it ends.
type queueView struct{ *Placer }

func (b queueView) Len() int { return len(b.queue) }

func (b queueView) Task(i int) sched.Task { return sched.Task{App: b.queue[i].App} }

func (b queueView) Decided(batch, placed int) {
	b.tracer.pass("score", batch, placed, b.clock.Since(b.passT0))
}

// Place builds the place event of batch member pos on the VM just popped
// for it — the neighbour, and the active model's forecast for the
// co-location — and applies it, which occupies the VM.
func (b queueView) Place(pos int, _ string, mi, si int, _ int64) error {
	rec := b.queue[pos]
	other, _ := b.pool.Occupant(mi, 1-si)
	evs := append(b.evbuf, durable.Event{
		Kind: durable.EvPlace, Task: rec.ID, Machine: mi, Slot: si, Neighbour: other, Gen: b.view.Gen,
	})
	ev := &evs[len(evs)-1]
	// Forecast this co-location for the completion-time drift check. The
	// prediction is telemetry: a failure here (cannot happen for a known
	// pair) must not undo a valid placement.
	if rt, err := b.view.Pred.PredictRuntime(rec.App, other); err == nil {
		ev.PredRT = rt
	}
	if io, err := b.view.Pred.PredictIOPS(rec.App, other); err == nil {
		ev.PredIOPS = io
	}
	// BG is the neighbour's characteristic vector, kept for the retraining
	// sample the completion observation turns into.
	if other == "" {
		ev.BG = make([]float64, model.NumFeatures)
	} else if f, err := b.view.Lib.Features(other); err == nil {
		ev.BG = append([]float64(nil), f...)
	}
	b.tracer.place(rec, ev)
	if err := b.dispatchLocked(ev); err != nil {
		return err
	}
	b.evbuf = evs
	return nil
}

func (b queueView) Passed(placed []bool) {
	n := len(b.evbuf)
	_ = b.commitEventsLocked(b.evbuf, n) // applied as their VMs were popped
	b.tracer.pass("batch_pass", len(placed), n, b.clock.Since(b.passT0))
	b.passT0 = b.clock.Now()
}

// CheckInvariants validates the placer's bookkeeping: slots and placement
// records must agree exactly, the queue must hold exactly the queued
// records, the pool must hold the inventory's occupants and machine states,
// and the pool's free index must pass its own full-scan re-derivation
// (sched.FreePool.Check). Tests call it after concurrent hammering; any
// violation is a serving-layer bug.
func (p *Placer) CheckInvariants() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.pool.Check(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	busy := 0
	for i := range p.machines {
		m := &p.machines[i]
		switch m.state {
		case MachineUp, MachineDrained, MachineDown:
		default:
			return fmt.Errorf("serve: machine %d in unknown state %q", i, m.state)
		}
		if p.pool.InService(i) != (m.state == MachineUp) {
			return fmt.Errorf("serve: machine %d is %s but the pool has it in service=%v", i, m.state, p.pool.InService(i))
		}
		for j, task := range m.tasks {
			app, occupied := p.pool.Occupant(i, j)
			if occupied != (task != "") {
				return fmt.Errorf("serve: slot %d/%d holds %q but the pool has it occupied by %q", i, j, task, app)
			}
			if task == "" {
				continue
			}
			// A dead machine must have been fully evacuated by Kill.
			if m.state == MachineDown {
				return fmt.Errorf("serve: down machine %d still holds task %q in slot %d", i, task, j)
			}
			busy++
			rec, ok := p.placements[task]
			if !ok {
				return fmt.Errorf("serve: slot %d/%d holds unknown task %q", i, j, task)
			}
			if rec.Status != StatusPlaced || rec.Machine != i || rec.Slot != j || rec.App != app {
				return fmt.Errorf("serve: slot %d/%d disagrees with record %+v", i, j, rec)
			}
		}
	}
	placed, queued := 0, 0
	for _, rec := range p.placements {
		if rec.Status == StatusQueued {
			queued++
		}
		if rec.Status == StatusPlaced {
			placed++
			if rec.Machine < 0 || rec.Machine >= len(p.machines) ||
				p.machines[rec.Machine].tasks[rec.Slot] != rec.ID {
				return fmt.Errorf("serve: placed record %q not on its slot", rec.ID)
			}
		}
	}
	if placed != busy {
		return fmt.Errorf("serve: %d placed records but %d busy slots", placed, busy)
	}
	if queued != len(p.queue) {
		return fmt.Errorf("serve: %d queued records but %d backlog entries", queued, len(p.queue))
	}
	for _, rec := range p.queue {
		if rec.Status != StatusQueued || p.placements[rec.ID] != rec {
			return fmt.Errorf("serve: queue entry %q not a queued record", rec.ID)
		}
	}
	return nil
}
