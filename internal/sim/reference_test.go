package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tracon/internal/fault"
	"tracon/internal/sched"
)

// This file holds the engine to a reference: a deliberately slow, obvious
// simulator of the same model, run side by side with it on random small
// configurations. The reference shares with the engine only the policy
// under test, sched.FreePool (each held to its own reference in
// internal/sched), the interference table's entries and pairRate clamp,
// PowerModel.watts and the fault.Plan queries. Everything else is written
// again the plain way:
//   - pending events sit in a plain slice, scanned for the earliest each
//     step; an attempt carries its own completion and timeout, so an
//     attempt that ends takes them with it and no event is ever stale;
//   - every enqueued task arms its own flush, and every event, a held
//     arrival or a flush included, is followed by a scheduling pass;
//   - the backlog is a slice of tasks, and the pass is written out here;
//   - a machine whose membership changes is settled at the old rates and
//     repriced, as the model says.
//
// Arrivals win same-instant ties, then events go in the order they were
// armed, as in the engine.

type refKind uint8

const (
	refArrival refKind = iota
	refFlush
	refRetry
	refDown
	refUp
	refSlow
	refCompletion
	refTimeout
)

type refEvent struct {
	time          float64
	seq           int64
	kind          refKind
	task          sched.Task // refArrival, refRetry
	machine, slot int
}

// refAttempt is one placement attempt running on a VM, with its pending
// completion (none while a slowdown stalls it) and timeout (none without
// one in the plan); a sequence number of 0 means no such event.
type refAttempt struct {
	task                    sched.Task
	app                     int
	work, rate, since       float64
	start, finish, deadline float64
	finishSeq, deadlineSeq  int64
}

type reference struct {
	cfg      Config
	tb       *InterferenceTable
	pool     *sched.FreePool
	vms      [][sched.SlotsPerMachine]*refAttempt
	watts    []float64 // each machine's draw since metered
	metered  []float64 // the time each machine's energy is billed up to
	pending  []refEvent
	backlog  []sched.Task
	input    []sched.Task // as given: dependents are released in this order
	unmet    map[int64]int
	held     map[int64]sched.Task
	attempts map[int64]int
	now      float64
	seq      int64
	res      Results
}

// runReference simulates arrivals on cfg's cluster until horizon.
func runReference(cfg Config, arrivals []sched.Task, horizon float64) (*Results, error) {
	if cfg.FlushTimeout <= 0 {
		cfg.FlushTimeout = 30
	}
	if cfg.Power == (PowerModel{}) {
		cfg.Power = DefaultPower()
	}
	n := cfg.Machines
	r := &reference{
		cfg: cfg, tb: cfg.Table, pool: sched.NewIdleFreePool(n),
		vms: make([][sched.SlotsPerMachine]*refAttempt, n), watts: make([]float64, n), metered: make([]float64, n),
		input: arrivals, unmet: map[int64]int{}, held: map[int64]sched.Task{}, attempts: map[int64]int{},
		res: Results{Scheduler: cfg.Scheduler.Name(), Submitted: len(arrivals)},
	}
	for m := range r.watts {
		r.watts[m] = cfg.Power.OffW
	}
	sorted := append([]sched.Task(nil), arrivals...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Arrival < sorted[b].Arrival })
	for i, t := range sorted {
		// Negative sequence numbers: an arrival wins every tie.
		r.pending = append(r.pending, refEvent{time: t.Arrival, seq: int64(i - len(sorted)), kind: refArrival, task: t})
		r.unmet[t.ID] += len(t.DependsOn)
	}
	for _, b := range cfg.Faults.Timeline() {
		kind := refSlow
		switch b.Kind {
		case fault.BoundaryDown:
			kind = refDown
		case fault.BoundaryUp:
			kind = refUp
		}
		r.push(refEvent{time: b.T, kind: kind, machine: b.Machine})
	}
	end := 0.0
	for {
		ev, ok := r.next()
		if !ok || ev.time > horizon {
			break
		}
		r.now = ev.time
		if ev.kind != refFlush {
			end = r.now
		}
		r.handle(ev)
		if err := r.pass(); err != nil {
			return nil, err
		}
	}
	r.now = horizon
	if math.IsInf(horizon, 1) {
		r.now = end
	}
	r.res.Horizon = r.now
	for m := range r.vms {
		r.settle(m)
	}
	return &r.res, nil
}

func (r *reference) push(ev refEvent) {
	r.seq++
	ev.seq = r.seq
	r.pending = append(r.pending, ev)
}

// next takes the earliest pending event, attempts' own included.
func (r *reference) next() (refEvent, bool) {
	best, at := refEvent{time: math.Inf(1)}, -1
	earlier := func(t float64, seq int64) bool { return t < best.time || (t == best.time && seq < best.seq) }
	for i, ev := range r.pending {
		if at < 0 || earlier(ev.time, ev.seq) {
			best, at = ev, i
		}
	}
	for m := range r.vms {
		for s, a := range r.vms[m] {
			if a == nil {
				continue
			}
			if a.finishSeq != 0 && (at < 0 || earlier(a.finish, a.finishSeq)) {
				best, at = refEvent{time: a.finish, seq: a.finishSeq, kind: refCompletion, machine: m, slot: s}, len(r.pending)
			}
			if a.deadlineSeq != 0 && (at < 0 || earlier(a.deadline, a.deadlineSeq)) {
				best, at = refEvent{time: a.deadline, seq: a.deadlineSeq, kind: refTimeout, machine: m, slot: s}, len(r.pending)
			}
		}
	}
	if at < 0 {
		return best, false
	}
	if at < len(r.pending) {
		r.pending = append(r.pending[:at], r.pending[at+1:]...)
	}
	return best, true
}

func (r *reference) handle(ev refEvent) {
	m, s := ev.machine, ev.slot
	switch ev.kind {
	case refArrival:
		if r.unmet[ev.task.ID] > 0 {
			r.held[ev.task.ID] = ev.task
		} else {
			r.enqueue(ev.task)
		}
	case refRetry:
		ev.task.Arrival = r.now
		r.enqueue(ev.task)
	case refCompletion:
		if id := r.vms[m][s].task.ID; r.cfg.Faults.TaskFails(id, r.attempts[id]) {
			r.evict(m, s, &r.res.FailedAttempts)
		} else {
			r.complete(m, s)
		}
	case refTimeout:
		r.evict(m, s, &r.res.Timeouts)
	case refDown:
		r.settle(m)
		r.pool.SetInService(m, false)
		r.res.MachineDowns++
		for s, a := range r.vms[m] {
			if a != nil {
				r.vms[m][s] = nil
				r.pool.Vacate(m, s)
				r.res.Evictions++
				r.retryOrLose(a.task)
			}
		}
		r.resample(m)
	case refUp:
		r.res.MachineUps++
		r.pool.SetInService(m, true)
		r.settle(m)
	case refSlow:
		if r.pool.InService(m) {
			r.settle(m)
			r.reprice(m)
		}
	}
}

func (r *reference) enqueue(t sched.Task) {
	r.backlog = append(r.backlog, t)
	r.push(refEvent{time: r.now + r.cfg.FlushTimeout, kind: refFlush})
}

// pass places from the backlog head while it can: batches of the policy's
// size, or a shorter one once the head has waited FlushTimeout.
func (r *reference) pass() error {
	s, q := r.cfg.Scheduler, r.cfg.Scheduler.BatchSize()
	for len(r.backlog) > 0 && r.pool.FreeSlots() > 0 {
		n := len(r.backlog)
		if n < q && r.now-r.backlog[0].Arrival < r.cfg.FlushTimeout-1e-9 {
			return nil
		}
		batch := append([]sched.Task(nil), r.backlog[:min(q, n)]...)
		for i := range batch {
			batch[i].ID = int64(i)
		}
		load := sched.Load{TotalSlots: r.pool.InServiceMachines() * sched.SlotsPerMachine, Queued: n}
		placements, err := s.Schedule(batch, r.pool.Counts(nil), load)
		if err != nil {
			return err
		}
		placed := make([]bool, len(batch))
		for _, pl := range placements {
			m, slot, err := r.pool.Pop(pl.Category)
			if err != nil {
				return err
			}
			r.place(r.backlog[pl.Task.ID], m, slot)
			placed[pl.Task.ID] = true
		}
		var rest []sched.Task
		for i, t := range r.backlog {
			if i >= len(batch) || !placed[i] {
				rest = append(rest, t)
			}
		}
		r.backlog = rest
		if len(placements) < len(batch) {
			return nil
		}
	}
	return nil
}

func (r *reference) place(t sched.Task, m, s int) {
	r.settle(m)
	app := r.tb.ords[t.App]
	a := &refAttempt{task: t, app: app, work: r.tb.soloRT[app], since: r.now, start: r.now}
	r.vms[m][s] = a
	r.pool.Occupy(m, s, t.App)
	r.attempts[t.ID]++
	if r.cfg.Faults != nil && r.cfg.Faults.TaskTimeout > 0 {
		r.seq++
		a.deadline, a.deadlineSeq = r.now+r.cfg.Faults.TaskTimeout, r.seq
	}
	r.reprice(m)
	r.resample(m)
}

func (r *reference) complete(m, s int) {
	r.settle(m)
	a := r.vms[m][s]
	r.vms[m][s] = nil
	rec := TaskRecord{Task: a.task, Start: a.start, Finish: r.now, Machine: m, Slot: s}
	for _, t := range r.input {
		for _, d := range t.DependsOn {
			if d != a.task.ID {
				continue
			}
			r.unmet[t.ID]--
			if h, ok := r.held[t.ID]; ok && r.unmet[t.ID] == 0 {
				delete(r.held, t.ID)
				h.Arrival = r.now
				r.enqueue(h)
			}
		}
	}
	r.res.LastFinish = max(r.res.LastFinish, r.now)
	r.res.CompletedCount++
	r.res.TotalRuntime += rec.Runtime()
	r.res.TotalWait += rec.Wait()
	r.res.Completed = append(r.res.Completed, rec)
	if ops := r.tb.ops[a.app]; ops > 0 && rec.Runtime() > 0 {
		r.res.TotalIOPS += ops / rec.Runtime()
	}
	r.pool.Vacate(m, s)
	r.reprice(m)
	r.resample(m)
}

// evict ends the attempt in (m, s) unfinished, counting it in counter.
func (r *reference) evict(m, s int, counter *int) {
	r.settle(m)
	a := r.vms[m][s]
	r.vms[m][s] = nil
	*counter++
	r.pool.Vacate(m, s)
	r.reprice(m)
	r.resample(m)
	r.retryOrLose(a.task)
}

func (r *reference) retryOrLose(t sched.Task) {
	made := r.attempts[t.ID]
	if !r.cfg.Faults.RetryAllowed(made + 1) {
		r.res.Lost++
		return
	}
	r.res.Retries++
	r.push(refEvent{time: r.now + r.cfg.Faults.RetryDelay(made), kind: refRetry, task: t})
}

// settle bills machine m's energy and advances its attempts' work up to
// now, at the rates they ran at.
func (r *reference) settle(m int) {
	if dt := r.now - r.metered[m]; dt > 0 {
		r.res.EnergyJ += dt * r.watts[m]
		r.metered[m] = r.now
	}
	for _, a := range r.vms[m] {
		if a != nil {
			if a.work -= a.rate * (r.now - a.since); a.work < 0 {
				a.work = 0
			}
			a.since = r.now
		}
	}
}

// neighbour is the app ordinal beside slot s of machine m (0: none).
func (r *reference) neighbour(m, s int) int {
	if o := r.vms[m][1-s]; o != nil {
		return o.app
	}
	return 0
}

// reprice gives machine m's attempts the rates of their new pairing and
// completions to match.
func (r *reference) reprice(m int) {
	for s, a := range r.vms[m] {
		if a == nil {
			continue
		}
		a.rate = r.tb.pairRate(a.app, r.neighbour(m, s)) * r.cfg.Faults.RateFactor(m, s, r.now)
		a.finishSeq = 0
		if a.rate > 0 {
			r.seq++
			a.finish, a.finishSeq = r.now+a.work/a.rate, r.seq
		}
	}
}

// resample sets machine m's draw for its current occupants.
func (r *reference) resample(m int) {
	util, busy := 0.0, false
	for s, a := range r.vms[m] {
		if a != nil {
			busy = true
			util += r.tb.util[a.app*r.tb.n+r.neighbour(m, s)]
		}
	}
	r.watts[m] = r.cfg.Power.watts(busy, util/2)
}

// refCases is how many random configurations TestEngineMatchesReference
// runs; -short runs every tenth.
const refCases = 2000

// TestEngineMatchesReference runs the engine and the reference on random
// small configurations and requires the same Results, per-task records
// included, bit for bit: every event happens at the same instant in the
// same order in both, and every sum adds the same terms in the same order.
// Each case is a subtest named by its seed, so a failure reruns alone with
// go test ./internal/sim -run 'TestEngineMatchesReference/seed=N'.
func TestEngineMatchesReference(t *testing.T) {
	tb := table(t)
	scorers := []*sched.Scorer{
		sched.NewScorer(tablePredictor{tb}, sched.MinRuntime),
		sched.NewScorer(tablePredictor{tb}, sched.MaxIOPS),
	}
	seen, ran := map[string]int{}, 0
	for seed := int64(1); seed <= refCases; seed++ {
		if testing.Short() && seed%10 != 0 {
			continue
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ran++
			c := newRefCase(tb, scorers, seed)
			eng, err := NewEngine(c.cfg)
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			got, err := eng.Run(c.tasks, c.horizon)
			if err != nil {
				t.Fatalf("%s: engine: %v", c, err)
			}
			want, err := runReference(c.cfg, c.tasks, c.horizon)
			if err != nil {
				t.Fatalf("%s: reference: %v", c, err)
			}
			for _, d := range resultsDiff(got, want) {
				t.Errorf("%s: %s", c, d)
			}
			for _, k := range c.covers(got) {
				seen[k]++
			}
		})
	}
	if ran < refCases {
		return // -short, or -run picked cases
	}
	// Every dimension the cases draw from must have been drawn.
	for _, k := range []string{
		"fifo", "mios", "mibs", "mix", "q=1", "q=2", "q=8", "static", "poisson", "dag",
		"finite", "infinite", "machines=1", "machines=12", "faults", "crash", "slowdown",
		"fail", "timeout", "retry", "lost", "stall",
	} {
		if seen[k] == 0 {
			t.Errorf("no case covers %s", k)
		}
	}
}

// refCase is one random configuration.
type refCase struct {
	seed    int64
	cfg     Config
	tasks   []sched.Task
	horizon float64
	policy  string
	q       int
	shape   string
}

func (c refCase) String() string {
	return fmt.Sprintf("seed %d (%s, Q=%d, %d machines, %d %s tasks, horizon %.6g, flush timeout %.6g, faults %v)",
		c.seed, c.policy, c.q, c.cfg.Machines, len(c.tasks), c.shape, c.horizon, c.cfg.FlushTimeout, c.cfg.Faults != nil)
}

// covers names the dimensions the case exercised.
func (c refCase) covers(r *Results) []string {
	ks := []string{c.policy, fmt.Sprintf("q=%d", c.q), c.shape, fmt.Sprintf("machines=%d", c.cfg.Machines)}
	if math.IsInf(c.horizon, 1) {
		ks = append(ks, "infinite")
	} else {
		ks = append(ks, "finite")
	}
	if p := c.cfg.Faults; p != nil {
		ks = append(ks, "faults")
		for _, s := range p.Slowdowns {
			if s.Factor == 0 {
				ks = append(ks, "stall")
			} else {
				ks = append(ks, "slowdown")
			}
		}
	}
	for k, n := range map[string]int{
		"crash": r.Evictions, "fail": r.FailedAttempts, "timeout": r.Timeouts, "retry": r.Retries, "lost": r.Lost,
	} {
		if n > 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// newRefCase draws a configuration from seed: 1–12 machines, any policy
// with Q ∈ {1, 2, 8}, a static, Poisson or DAG workload handed over in any
// order, a finite or infinite horizon, a random flush timeout (0 takes the
// default) and, half the time, a fault plan. Times are in units of the mean
// solo runtime, so every window and timeout lands among the completions.
func newRefCase(tb *InterferenceTable, scorers []*sched.Scorer, seed int64) refCase {
	rng := rand.New(rand.NewSource(seed))
	apps := tb.Apps()
	unit := 0.0
	for _, a := range apps {
		unit += tb.SoloRuntime(a) / float64(len(apps))
	}
	c := refCase{seed: seed, policy: []string{"fifo", "mios", "mibs", "mix"}[rng.Intn(4)], q: []int{1, 2, 8}[rng.Intn(3)]}
	s, err := sched.New(c.policy, c.q, scorers[rng.Intn(len(scorers))])
	if err != nil {
		panic(err)
	}
	machines := 1 + rng.Intn(12)
	c.cfg = Config{Machines: machines, Scheduler: s, Table: tb}
	switch rng.Intn(3) {
	case 1:
		c.cfg.FlushTimeout = rng.Float64() * 0.2 * unit
	case 2:
		c.cfg.FlushTimeout = rng.Float64() * 2 * unit
	}

	n := 1 + rng.Intn(4*machines+4)
	c.shape = []string{"static", "poisson", "dag"}[rng.Intn(3)]
	gap := 0.0 // mean inter-arrival time; 0 is a static batch
	if c.shape == "poisson" || (c.shape == "dag" && rng.Intn(2) == 0) {
		gap = unit / float64(2*machines) * (0.3 + 3*rng.Float64())
	}
	ids := rng.Perm(n)
	if rng.Intn(2) == 0 {
		ids = nil // the plain 0..n-1
	}
	tm := 0.0
	c.tasks = make([]sched.Task, n)
	for i := range c.tasks {
		t := &c.tasks[i]
		t.ID, t.App, t.Arrival = int64(i), apps[rng.Intn(len(apps))], tm
		if ids != nil {
			t.ID = int64(ids[i]) + 100
		}
		if c.shape == "dag" && i > 0 {
			for k := rng.Intn(3); k > 0; k-- {
				if d := c.tasks[rng.Intn(i)].ID; !containsID(t.DependsOn, d) {
					t.DependsOn = append(t.DependsOn, d)
				}
			}
		}
		if gap > 0 {
			tm += rng.ExpFloat64() * gap
		}
	}
	if rng.Intn(4) == 0 {
		rng.Shuffle(n, func(i, j int) { c.tasks[i], c.tasks[j] = c.tasks[j], c.tasks[i] })
	}
	span := tm + unit*(1+float64(n)/float64(2*machines))

	c.horizon = math.Inf(1)
	if rng.Intn(2) == 0 {
		c.horizon = span * (0.1 + rng.Float64())
	}
	if rng.Intn(2) == 0 {
		c.cfg.Faults = randomPlan(rng, machines, unit, span, c.tasks)
	}
	return c
}

// randomPlan draws a valid fault plan: crash windows (some permanent, some
// starting at an arrival's instant, which the arrival wins), slowdowns
// (some full stalls), attempt failures, timeouts and a retry policy, each
// present or absent at random.
func randomPlan(rng *rand.Rand, machines int, unit, span float64, tasks []sched.Task) *fault.Plan {
	p := &fault.Plan{Seed: rng.Int63()}
	if rng.Intn(2) == 0 {
		p.FailProb = 0.4 * rng.Float64()
	}
	if rng.Intn(3) == 0 {
		p.TaskTimeout = unit * (0.5 + 2*rng.Float64())
	}
	if rng.Intn(2) == 0 {
		p.Retry = fault.RetryPolicy{
			MaxAttempts:   rng.Intn(5),
			Backoff:       0.2 * unit * rng.Float64(),
			BackoffFactor: 3 * rng.Float64(),
			MaxBackoff:    unit * rng.Float64(),
		}
	}
	for m := range machines {
		at := 0.0
		for w := rng.Intn(3); w > 0 && rng.Intn(3) == 0; w-- {
			c := fault.Crash{Machine: m, DownAt: at + span*rng.Float64()/2}
			if a := tasks[rng.Intn(len(tasks))].Arrival; a >= at && rng.Intn(4) == 0 {
				c.DownAt = a
			}
			if rng.Intn(5) == 0 {
				p.Crashes = append(p.Crashes, c) // never recovers
				break
			}
			c.UpAt = c.DownAt + unit*rng.Float64()
			at = c.UpAt
			p.Crashes = append(p.Crashes, c)
		}
		for s := range sched.SlotsPerMachine {
			if rng.Intn(4) == 0 {
				from := span * rng.Float64()
				sd := fault.Slowdown{Machine: m, Slot: s, From: from, To: from + unit*rng.Float64(), Factor: 0.99 * rng.Float64()}
				if rng.Intn(3) == 0 {
					sd.Factor = 0
				}
				p.Slowdowns = append(p.Slowdowns, sd)
			}
		}
	}
	if err := p.Validate(machines, sched.SlotsPerMachine); err != nil {
		panic(err)
	}
	return p
}

func containsID(ids []int64, id int64) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// resultsDiff lists the fields in which got differs from want, naming the
// first differing record.
func resultsDiff(got, want *Results) []string {
	var out []string
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := range g.NumField() {
		name := g.Type().Field(i).Name
		if name == "Completed" || reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			continue
		}
		out = append(out, fmt.Sprintf("%s: engine %v, reference %v", name, g.Field(i), w.Field(i)))
	}
	for i := range max(len(got.Completed), len(want.Completed)) {
		if i >= len(got.Completed) || i >= len(want.Completed) {
			out = append(out, fmt.Sprintf("Completed: engine %d records, reference %d", len(got.Completed), len(want.Completed)))
			break
		}
		if !reflect.DeepEqual(got.Completed[i], want.Completed[i]) {
			out = append(out, fmt.Sprintf("Completed[%d]: engine %+v, reference %+v", i, got.Completed[i], want.Completed[i]))
			break
		}
	}
	return out
}
