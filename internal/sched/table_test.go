package sched

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"tracon/internal/model"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

var (
	libOnce sync.Once
	lib8    *model.Library
	libErr  error
)

// testLibrary returns the NLM library trained over the eight Table 3
// benchmarks at seed 1, the way tracond trains at boot; it is built once
// per test binary.
func testLibrary(t testing.TB) *model.Library {
	t.Helper()
	libOnce.Do(func() {
		host, err := xen.NewHost(xen.DefaultHost())
		if err != nil {
			libErr = err
			return
		}
		tb := xen.NewTestbed(host, 3, 0.05, 1)
		var specs, bgs []xen.AppSpec
		for _, b := range workload.Benchmarks() {
			specs = append(specs, b.Spec)
		}
		for _, w := range workload.ProfilingWorkloads(host.Config().Disk) {
			bgs = append(bgs, w.Spec)
		}
		lib8, libErr = model.BuildLibrary(tb, specs, bgs, model.NLM)
	})
	if libErr != nil {
		t.Fatal(libErr)
	}
	return lib8
}

// census is a free pool over every app of lib, half of it idle machines.
func census(lib model.Predictor) Counts {
	c := Counts{EmptyCategory: 16}
	for _, a := range lib.Apps() {
		c[a] = 2
	}
	return c
}

// TestSchedulersRejectUnknownApps: an app the table does not know, in the
// batch or as a category with free VMs, is the predictor's typed error.
// A spent category is never scored, so it need not be known.
func TestSchedulersRejectUnknownApps(t *testing.T) {
	s := NewScorer(newSynthPred(1, 4), MinRuntime)
	known := s.pred.Apps()[0]
	load := Load{TotalSlots: 16, Queued: 2}
	for _, sch := range []Scheduler{&MIOS{Scorer: s}, &MIBS{Scorer: s, QueueLen: 2}, &MIX{Scorer: s, QueueLen: 2}} {
		for name, in := range map[string]struct {
			batch  []Task
			counts Counts
		}{
			"batch app":         {tasks(known, "nope"), Counts{EmptyCategory: 4}},
			"category":          {tasks(known), Counts{EmptyCategory: 4, "nope": 1}},
			"empty app":         {tasks(EmptyCategory), Counts{EmptyCategory: 4}},
			"full cluster, app": {tasks("nope"), Counts{}},
		} {
			if _, err := sch.Schedule(in.batch, in.counts, load); !errors.Is(err, model.ErrUnknownApp) {
				t.Errorf("%s, unknown %s: err = %v, want ErrUnknownApp", sch.Name(), name, err)
			}
		}
		if _, err := sch.Schedule(tasks(known), Counts{EmptyCategory: 4, "nope": 0}, load); err != nil {
			t.Errorf("%s: spent unknown category: %v", sch.Name(), err)
		}
	}
	if _, err := s.PairScore(known, EmptyCategory); !errors.Is(err, model.ErrUnknownApp) {
		t.Errorf("PairScore against an idle machine: err = %v, want ErrUnknownApp", err)
	}
}

// TestTableBuildCost logs what a Scorer's first use costs: an n² pass over
// the predictor, at the 8-app library and at a synthetic 256-app one
// (AddTrained grows a library on retrain). It also checks the table's
// shape: symmetric, and zero against an idle neighbour.
func TestTableBuildCost(t *testing.T) {
	for _, c := range []struct {
		name string
		pred model.Predictor
	}{{"8-app NLM library", testLibrary(t)}, {"synthetic 256 apps", newSynthPred(7, 253)}} {
		s := NewScorer(c.pred, MinRuntime)
		t0 := time.Now()
		tab, err := s.table()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d×%d table built in %v", c.name, tab.n-1, tab.n-1, time.Since(t0))
		for a := 1; a < tab.n; a++ {
			if tab.score[a*tab.n] != 0 {
				t.Fatalf("%s: %s beside an idle machine scores %v", c.name, tab.names[a], tab.score[a*tab.n])
			}
			for b := 1; b < tab.n; b++ {
				if tab.score[a*tab.n+b] != tab.score[b*tab.n+a] || math.IsNaN(tab.score[a*tab.n+b]) {
					t.Fatalf("%s: score(%s, %s) asymmetric or NaN", c.name, tab.names[a], tab.names[b])
				}
			}
		}
	}
}

// scheduleBench is one BenchmarkSchedule / TestScheduleAllocs row: a
// policy over the 8-app library with the batch length the daemon and the
// simulator give it.
type scheduleBench struct {
	sched Scheduler
	batch []Task
}

func scheduleBenches(t testing.TB) []scheduleBench {
	s := NewScorer(testLibrary(t), MinRuntime)
	apps := s.pred.Apps()
	batch := make([]Task, 8)
	for i := range batch {
		batch[i] = Task{ID: int64(i), App: apps[(3*i)%len(apps)]}
	}
	return []scheduleBench{
		{FIFO{}, batch[:1]},
		{&MIOS{Scorer: s}, batch[:1]},
		{&MIBS{Scorer: s, QueueLen: 8}, batch},
		{&MIX{Scorer: s, QueueLen: 8}, batch},
	}
}

// TestScheduleAllocs gates the allocations of one Schedule call: every
// policy allocates its result slice and nothing else. MIX included: its
// nine MIBS trials run on the stack and only the winner's placements
// reach the heap.
func TestScheduleAllocs(t *testing.T) {
	counts := census(testLibrary(t))
	load := Load{TotalSlots: 64, Queued: 8}
	for _, b := range scheduleBenches(t) {
		if _, err := b.sched.Schedule(b.batch, counts, load); err != nil {
			t.Fatal(err) // builds the table outside the measurement
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := b.sched.Schedule(b.batch, counts, load); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per call", b.sched.Name(), got)
		if got > 1 {
			t.Errorf("%s: %.0f allocs per call, ceiling 1", b.sched.Name(), got)
		}
	}
}

// BenchmarkSchedule times one Schedule call per policy over the 8-app
// library on a half-idle pool.
func BenchmarkSchedule(b *testing.B) {
	counts := census(testLibrary(b))
	load := Load{TotalSlots: 64, Queued: 8}
	for _, sb := range scheduleBenches(b) {
		b.Run(sb.sched.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sb.sched.Schedule(sb.batch, counts, load); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
