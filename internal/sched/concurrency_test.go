package sched

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestScorerConcurrentUse makes the first use of one fresh Scorer from 8
// goroutines at once, so they race to build and publish its table (and
// schedule with it while they do). Run under -race this proves the shared
// read path of the parallel experiment runner is synchronized; every
// goroutine must see one table, bit-identical to a sequentially built one.
func TestScorerConcurrentUse(t *testing.T) {
	pred := newSynthPred(5, 40)
	for _, obj := range []Objective{MinRuntime, MaxIOPS} {
		want, err := NewScorer(pred, obj).table()
		if err != nil {
			t.Fatal(err)
		}
		s := NewScorer(pred, obj)
		const goroutines = 8
		got := make([]*table, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				batch := tasks(pred.apps[g], pred.apps[g+1], pred.apps[g])
				if _, err := (&MIBS{Scorer: s, QueueLen: 3}).Schedule(batch, Counts{EmptyCategory: 4}, Load{TotalSlots: 8, Queued: 3}); err != nil {
					t.Error(err)
				}
				tab, err := s.table()
				if err != nil {
					t.Error(err)
				}
				got[g] = tab
			}(g)
		}
		close(start)
		wg.Wait()
		for g, tab := range got {
			if tab != got[0] {
				t.Fatalf("goroutine %d saw a different table than goroutine 0", g)
			}
		}
		if !reflect.DeepEqual(got[0].names, want.names) || len(got[0].score) != len(want.score) {
			t.Fatalf("concurrent table shape differs from the sequential one")
		}
		for i, v := range got[0].score {
			if math.Float64bits(v) != math.Float64bits(want.score[i]) {
				t.Fatalf("score[%d] = %v, sequential %v", i, v, want.score[i])
			}
		}
	}
}

// TestFreePoolPerGoroutineOwnership is the pattern the parallel runner
// uses: each concurrent simulation builds its own FreePool. Run under
// -race this asserts per-owner pools need no synchronization.
func TestFreePoolPerGoroutineOwnership(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewFreePool()
			for m := 0; m < 16; m++ {
				p.SetFree(m, 0, EmptyCategory)
				p.SetFree(m, 1, "io")
			}
			for i := 0; i < 16; i++ {
				if _, _, err := p.Pop(AnyCategory); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := p.Pop("io"); err != nil {
					t.Error(err)
					return
				}
			}
			if got := p.FreeSlots(); got != 0 {
				t.Errorf("FreeSlots = %d, want 0", got)
			}
		}()
	}
	wg.Wait()
}

// TestFreePoolSingleOwnerGuard asserts the documented ownership contract
// is enforced: every guarded method of a FreePool entered by a second party
// panics instead of corrupting its heaps or its caller's map. The guard is
// tripped deterministically by holding the pool "entered" while calling the
// method. FreeSlots, FreeGen, Occupant and the service reads are reads of
// a field or two and carry no guard; the race detector covers them.
func TestFreePoolSingleOwnerGuard(t *testing.T) {
	for _, c := range []struct {
		name string
		call func(p *FreePool)
	}{
		{"SetFree", func(p *FreePool) { p.SetFree(1, 0, "io") }},
		{"Pop", func(p *FreePool) { p.Pop(AnyCategory) }},
		{"PopTraced", func(p *FreePool) { p.PopTraced(EmptyCategory) }},
		{"Counts", func(p *FreePool) { p.Counts(Counts{}) }},
		{"Occupy", func(p *FreePool) { p.Occupy(0, 1, "io") }},
		{"Vacate", func(p *FreePool) { p.Vacate(0, 0) }},
		{"SetInService", func(p *FreePool) { p.SetInService(1, true) }},
		{"Check", func(p *FreePool) { p.Check() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := NewFreePool()
			p.SetFree(0, 0, EmptyCategory)
			p.enter() // simulate another goroutine mid-call
			defer func() {
				if recover() == nil {
					t.Fatalf("concurrent %s did not panic", c.name)
				}
			}()
			c.call(p)
		})
	}
}
