package serve

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tracon/internal/durable"
	"tracon/internal/model"
	"tracon/internal/sched"
)

// TestNoBacklogBesideFreeSlot holds the property one lock hold per
// operation gives by construction: every operation that queues a task or
// frees a VM also runs the scheduling passes before it lets go of the lock,
// so under a policy that always places while a VM is free (fifo, mios) no
// observer ever sees a backlog beside a free slot. While admit and drain
// were separate holds, a Snapshot between them saw exactly that.
func TestNoBacklogBesideFreeSlot(t *testing.T) {
	for _, policy := range []string{"fifo", "mios"} {
		t.Run(policy, func(t *testing.T) {
			const machines = 4
			s := newTestServer(t, model.NLM, Config{Machines: machines, Policy: policy, MaxQueue: -1, TraceCap: -1})
			p := s.Placer()
			apps := testLibrary(t, model.NLM).Apps()

			stop := make(chan struct{})
			stopped := func() bool {
				select {
				case <-stop:
					return true
				default:
					return false
				}
			}
			var background sync.WaitGroup
			background.Add(4)
			go func() { // sampler
				defer background.Done()
				for !stopped() {
					if snap := p.Snapshot(); snap.QueueDepth > 0 && snap.FreeSlots > 0 {
						t.Errorf("backlog of %d beside %d free slots", snap.QueueDepth, snap.FreeSlots)
						return
					}
				}
			}()
			for range 2 { // completers: finish whatever is running
				go func() {
					defer background.Done()
					for !stopped() {
						completeRunning(t, p)
					}
				}()
			}
			go func() { // lifecycle: the only goroutine moving machine states
				defer background.Done()
				for i := 0; !stopped(); i++ {
					m := i % machines
					_, err := p.Kill(m)
					if err == nil {
						err = p.Revive(m)
					}
					if err == nil {
						err = p.Drain(m)
					}
					if err == nil {
						err = p.Undrain(m)
					}
					if err != nil {
						t.Errorf("lifecycle on machine %d: %v", m, err)
						return
					}
				}
			}()

			var submitters sync.WaitGroup
			for g := 0; g < 3; g++ {
				submitters.Add(1)
				go func(g int) {
					defer submitters.Done()
					for i := 0; i < 150; i++ {
						app := apps[(g+i)%len(apps)]
						var err error
						if i%3 == 0 {
							_, err = p.SubmitBatch([]string{app, app, app})
						} else {
							_, err = p.SubmitKeyed(app, "", "")
						}
						if err != nil {
							t.Errorf("submit: %v", err)
							return
						}
					}
				}(g)
			}
			submitters.Wait()
			close(stop)
			background.Wait()
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// completeRunning completes every task it finds on a VM. Losing one to a
// concurrent completer or to a kill is part of the hammers that call it.
func completeRunning(t *testing.T, p *Placer) {
	for _, mv := range p.Machines() {
		for _, sv := range mv.Slots {
			if sv.Task == "" {
				continue
			}
			if _, err := p.Complete(sv.Task); err != nil &&
				!errors.Is(err, ErrNotPlaced) && !errors.Is(err, ErrUnknownPlacement) {
				t.Errorf("complete %s: %v", sv.Task, err)
			}
		}
	}
}

// TestOnePassOneScore: a scheduling pass scores its batch exactly once.
// Four workers hammer batches through MIBS with a tracer attached; the
// score and batch_pass span counts must be equal and no plan_* span (the
// deleted optimistic planner's outcome kinds) may appear. The planner
// re-scored about a quarter of its passes under this load.
func TestOnePassOneScore(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 16, Policy: "mibs", QueueLen: 8, MaxQueue: -1, TraceCap: 1 << 18})
	p := s.Placer()
	apps := testLibrary(t, model.NLM).Apps()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]string, 8)
			for i := 0; i < 60; i++ {
				for j := range batch {
					batch[j] = apps[(g+i+j)%len(apps)]
				}
				outcomes, err := p.SubmitBatch(batch)
				if err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				for _, o := range outcomes {
					if o.Err != nil {
						t.Errorf("batch task: %v", o.Err)
						return
					}
				}
				completeRunning(t, p)
			}
		}(g)
	}
	wg.Wait()

	if dropped := s.tracer.tr.Dropped(); dropped != 0 {
		t.Fatalf("trace ring dropped %d spans; raise TraceCap", dropped)
	}
	counts := map[string]int{}
	for _, ev := range s.tracer.tr.Events() {
		counts[ev.Kind]++
		if strings.HasPrefix(ev.Kind, "plan_") {
			t.Fatalf("span kind %q emitted", ev.Kind)
		}
	}
	if counts["score"] == 0 || counts["score"] != counts["batch_pass"] {
		t.Fatalf("%d score spans for %d batch_pass spans, want equal and non-zero", counts["score"], counts["batch_pass"])
	}
}

// syncCountFS is a MemFS that counts the file syncs (fsyncs) asked of it.
type syncCountFS struct {
	*durable.MemFS
	syncs atomic.Int64
}

func (c *syncCountFS) Create(name string, excl bool) (durable.File, error) {
	f, err := c.MemFS.Create(name, excl)
	if err != nil {
		return nil, err
	}
	return syncCounter{f, &c.syncs}, nil
}

func (c *syncCountFS) OpenWrite(name string) (durable.File, error) {
	f, err := c.MemFS.OpenWrite(name)
	if err != nil {
		return nil, err
	}
	return syncCounter{f, &c.syncs}, nil
}

type syncCounter struct {
	durable.File
	n *atomic.Int64
}

func (f syncCounter) Sync() error {
	f.n.Add(1)
	return f.File.Sync()
}

// TestOneFsyncPerHold: under FsyncAlways every mutating operation journals
// its hold's commit groups with one append, so it costs one fsync however
// many groups it commits — a submit's admit and place, a completion and
// the placement of the backlog head it frees a VM for, a kill and the
// re-placement of the tasks it evicts. A submit → complete cycle costs two.
func TestOneFsyncPerHold(t *testing.T) {
	fs := &syncCountFS{MemFS: durable.NewMemFS()}
	mgr, err := durable.Open("data", durable.Options{FS: fs, Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	lib := testLibrary(t, model.NLM)
	s, err := New(lib, Config{Machines: 2, MaxQueue: -1, TraceCap: -1, Journal: mgr})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Placer()
	app := lib.Apps()[0]
	oneSync := func(what string, op func() error) {
		t.Helper()
		before := fs.syncs.Load()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := fs.syncs.Load() - before; got != 1 {
			t.Errorf("%s cost %d fsyncs, want 1", what, got)
		}
	}
	var ids []string
	submit := func() error {
		rec, err := p.SubmitKeyed(app, "", "")
		if err == nil {
			ids = append(ids, rec.ID)
		}
		return err
	}
	complete := func(i int) func() error {
		return func() error { _, err := p.Complete(ids[i]); return err }
	}
	status := func(i int, want string) {
		t.Helper()
		if rec, _ := p.Get(ids[i]); rec.Status != want {
			t.Fatalf("task %s is %s, want %s", ids[i], rec.Status, want)
		}
	}

	oneSync("a singleton submit", submit)
	status(0, StatusPlaced)
	oneSync("a complete with an empty backlog", complete(0))
	for range 2 * SlotsPerMachine {
		oneSync("a singleton submit", submit)
	}
	oneSync("a singleton submit that queues", submit)
	status(5, StatusQueued)
	oneSync("a complete that places the backlog head", complete(1))
	status(5, StatusPlaced)
	for _, i := range []int{2, 3, 4, 5} {
		oneSync("a complete with an empty backlog", complete(i))
	}
	oneSync("a batch submit", func() error {
		outs, err := p.SubmitBatch([]string{app, app})
		for _, o := range outs {
			ids = append(ids, o.Placement.ID)
		}
		return err
	})
	status(6, StatusPlaced)
	status(7, StatusPlaced)
	victim, _ := p.Get(ids[6])
	oneSync("a kill that requeues and drains", func() error {
		n, err := p.Kill(victim.Machine)
		if err == nil && n == 0 {
			err = errors.New("the kill requeued nothing")
		}
		return err
	})
	status(6, StatusPlaced)
	oneSync("a revive", func() error { return p.Revive(victim.Machine) })
	oneSync("a complete with an empty backlog", complete(6))
	oneSync("a complete with an empty backlog", complete(7))

	const tasks = 100
	before := fs.syncs.Load()
	for i := range tasks {
		if err := submit(); err != nil {
			t.Fatal(err)
		}
		if err := complete(8 + i)(); err != nil {
			t.Fatal(err)
		}
	}
	if perTask := float64(fs.syncs.Load()-before) / tasks; perTask != 2 {
		t.Fatalf("a submit → complete closed loop costs %.2f fsyncs per task, want 2.00", perTask)
	}
}

// misplacing places the first batch member on any free VM and the second
// on a category no VM has, so its pass fails after one placement.
type misplacing struct{}

func (misplacing) Name() string   { return "MISPLACING" }
func (misplacing) BatchSize() int { return 2 }

func (misplacing) Schedule(batch []sched.Task, _ sched.Counts, _ sched.Load) ([]sched.Placement, error) {
	return []sched.Placement{{Task: batch[0], Category: sched.AnyCategory}, {Task: batch[1], Category: "no-such-app"}}, nil
}

// TestFailedPassCommitsWhatItPlaced: a scheduling pass that fails midway
// still commits the placement it applied before the failure, as its own
// group, so the journal and a follower never fall behind the placer.
func TestFailedPassCommitsWhatItPlaced(t *testing.T) {
	s := newTestServer(t, model.NLM, Config{Machines: 2, MaxQueue: -1, TraceCap: -1})
	p := s.Placer()
	var groups []string
	p.onCommit = func(evs []durable.Event) {
		var g []string
		for _, ev := range evs {
			g = append(g, ev.Kind+":"+ev.Task)
		}
		groups = append(groups, strings.Join(g, " "))
	}
	p.models.mu.Lock()
	p.models.scheduler = misplacing{}
	p.models.mu.Unlock()
	app := testLibrary(t, model.NLM).Apps()[0]
	if _, err := p.SubmitBatch([]string{app, app}); err == nil || !strings.Contains(err.Error(), `MISPLACING chose category "no-such-app"`) {
		t.Fatalf("batch submit: %v, want the misplacement named", err)
	}
	if got, want := strings.Join(groups, " | "), "batch_admit: | place:t-1"; got != want {
		t.Errorf("committed groups %q, want %q", got, want)
	}
	for id, want := range map[string]string{"t-1": StatusPlaced, "t-2": StatusQueued} {
		if rec, _ := p.Get(id); rec.Status != want {
			t.Errorf("%s is %s, want %s", id, rec.Status, want)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
