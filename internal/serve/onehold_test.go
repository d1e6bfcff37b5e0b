package serve

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"tracon/internal/model"
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
