package sched

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// fakePred is a deterministic Predictor with a hand-built interference
// matrix: "cpu" and "io" barely interfere with each other, while io+io is
// catastrophic and cpu+cpu doubles runtime.
type fakePred struct{}

var fakeRT = map[[2]string]float64{
	{"cpu", ""}:    100,
	{"io", ""}:     100,
	{"cpu", "cpu"}: 200,
	{"cpu", "io"}:  110,
	{"io", "cpu"}:  105,
	{"io", "io"}:   1000,
	{"mid", ""}:    100,
	{"mid", "mid"}: 300,
	{"mid", "cpu"}: 150,
	{"cpu", "mid"}: 150,
	{"mid", "io"}:  200,
	{"io", "mid"}:  200,
}

func (fakePred) PredictRuntime(target, corunner string) (float64, error) {
	v, ok := fakeRT[[2]string{target, corunner}]
	if !ok {
		return 0, fmt.Errorf("no entry for %q vs %q", target, corunner)
	}
	return v, nil
}

func (fakePred) PredictIOPS(target, corunner string) (float64, error) {
	rt, err := fakePred{}.PredictRuntime(target, corunner)
	if err != nil {
		return 0, err
	}
	return 100 * 100 / rt, nil // IOPS inversely proportional to runtime
}

func (fakePred) SoloRuntime(target string) (float64, error) { return 100, nil }
func (fakePred) SoloIOPS(target string) (float64, error)    { return 100, nil }
func (fakePred) Apps() []string                             { return []string{"cpu", "io", "mid"} }

func newScorer(obj Objective) *Scorer { return NewScorer(fakePred{}, obj) }

func tasks(apps ...string) []Task {
	out := make([]Task, len(apps))
	for i, a := range apps {
		out[i] = Task{ID: int64(i), App: a}
	}
	return out
}

// newTestPass builds a pass over the fake predictor's table.
func newTestPass(t *testing.T, s *Scorer, batch []Task, counts Counts, load Load) *pass {
	t.Helper()
	p, err := s.newPass(batch, counts, load, new(passBuf))
	if err != nil {
		t.Fatal(err)
	}
	return &p
}

func TestCountsTake(t *testing.T) {
	p := newTestPass(t, newScorer(MinRuntime), tasks("io"), Counts{EmptyCategory: 4, "cpu": 1}, Load{})
	cpu, _ := p.t.app("cpu")
	io, _ := p.t.app("io")
	if err := p.take(cpu, io); err != nil {
		t.Fatal(err)
	}
	if p.count[cpu] != 0 || p.free != 4 {
		t.Fatalf("cpu count = %d, free = %d", p.count[cpu], p.free)
	}
	if err := p.take(0, io); err != nil {
		t.Fatal(err)
	}
	if p.count[0] != 2 || p.count[io] != 1 || p.free != 3 {
		t.Fatalf("counts after empty take: %v, free %d", p.count, p.free)
	}
	p.count[0] = 1
	if err := p.take(0, io); err == nil {
		t.Fatal("take of one empty slot on a two-VM machine succeeded")
	}
}

func TestCountsTotalAndClone(t *testing.T) {
	c := Counts{EmptyCategory: 2, "a": 3}
	if c.Total() != 5 {
		t.Fatalf("Total = %d", c.Total())
	}
	d := c.Clone()
	d["a"] = 0
	if c["a"] != 3 {
		t.Fatal("Clone aliases original")
	}
}

func TestScorerPrefersCompatibleNeighbour(t *testing.T) {
	s := newScorer(MinRuntime)
	ioVsCPU, err := s.PlacementScore("io", "cpu")
	if err != nil {
		t.Fatal(err)
	}
	ioVsIO, err := s.PlacementScore("io", "io")
	if err != nil {
		t.Fatal(err)
	}
	if ioVsCPU >= ioVsIO {
		t.Fatalf("io next to cpu (%v) must beat io next to io (%v)", ioVsCPU, ioVsIO)
	}
	empty, err := s.PlacementScore("io", EmptyCategory)
	if err != nil {
		t.Fatal(err)
	}
	if empty >= ioVsCPU {
		t.Fatalf("empty machine (%v) must beat any pairing (%v)", empty, ioVsCPU)
	}
}

func TestScorerIOPSObjectiveSign(t *testing.T) {
	s := newScorer(MaxIOPS)
	good, err := s.PlacementScore("io", "cpu")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := s.PlacementScore("io", "io")
	if err != nil {
		t.Fatal(err)
	}
	if good >= bad {
		t.Fatalf("IOPS objective inverted: %v vs %v", good, bad)
	}
}

func TestScorerUnknownAppErrors(t *testing.T) {
	s := newScorer(MinRuntime)
	if _, err := s.PlacementScore("nope", "cpu"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestMIOSAvoidsBadPairing(t *testing.T) {
	s := newScorer(MinRuntime)
	m := &MIOS{Scorer: s}
	// One io-neighboured slot and one cpu-neighboured slot: an io task must
	// pick the cpu neighbour.
	counts := Counts{"io": 1, "cpu": 1}
	pl, err := m.Schedule(tasks("io"), counts, Load{TotalSlots: 4, Queued: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 1 || pl[0].Category != "cpu" {
		t.Fatalf("placement = %+v", pl)
	}
}

func TestMIOSPrefersEmptyMachineAtLowLoad(t *testing.T) {
	// In a nearly idle cluster the expected future neighbour is negligible,
	// so an idle machine beats sharing with a cpu hog.
	s := newScorer(MinRuntime)
	m := &MIOS{Scorer: s}
	counts := Counts{EmptyCategory: 98, "cpu": 1}
	pl, err := m.Schedule(tasks("cpu"), counts, Load{TotalSlots: 100, Queued: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pl[0].Category != EmptyCategory {
		t.Fatalf("placement = %+v", pl)
	}
}

func TestMIOSPairsUnderFullLoad(t *testing.T) {
	// When the queue will certainly fill every slot, an io task should take
	// the cpu-neighboured slot rather than an empty machine that a future
	// io task would share.
	s := newScorer(MinRuntime)
	m := &MIOS{Scorer: s}
	counts := Counts{EmptyCategory: 2, "cpu": 1}
	pl, err := m.Schedule(tasks("io"), counts, Load{TotalSlots: 4, Queued: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pl[0].Category != "cpu" {
		t.Fatalf("placement = %+v", pl)
	}
}

func TestMIOSLeavesTasksWhenFull(t *testing.T) {
	s := newScorer(MinRuntime)
	m := &MIOS{Scorer: s}
	pl, err := m.Schedule(tasks("io", "cpu", "io"), Counts{"cpu": 1}, Load{TotalSlots: 4, Queued: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 1 {
		t.Fatalf("placed %d tasks on 1 slot", len(pl))
	}
}

func TestFIFOPlacesInOrder(t *testing.T) {
	pl, err := FIFO{}.Schedule(tasks("io", "io", "cpu"), Counts{EmptyCategory: 4}, Load{TotalSlots: 4, Queued: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 3 {
		t.Fatalf("placed %d", len(pl))
	}
	for i, p := range pl {
		if p.Category != AnyCategory {
			t.Fatalf("FIFO placement %d category %q", i, p.Category)
		}
		if p.Task.ID != int64(i) {
			t.Fatal("FIFO out of order")
		}
	}
}

func TestMIBSPairsCompatibleTasks(t *testing.T) {
	s := newScorer(MinRuntime)
	m := &MIBS{Scorer: s, QueueLen: 4}
	// Two empty machines (4 slots). Queue: io, io, cpu, cpu.
	// MIBS should pair io with cpu, not io with io.
	counts := Counts{EmptyCategory: 4}
	pl, err := m.Schedule(tasks("io", "io", "cpu", "cpu"), counts, Load{TotalSlots: 4, Queued: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 4 {
		t.Fatalf("placed %d of 4", len(pl))
	}
	// The Min-Min head opens an empty machine and gets the compatible
	// companion committed beside it; critically, no io task ever lands next
	// to another io task (FIFO would do exactly that here).
	if pl[0].Category != EmptyCategory {
		t.Fatalf("pl[0] = %+v", pl[0])
	}
	if pl[1].Task.App == pl[0].Task.App {
		t.Fatalf("companion %+v duplicates the head %+v", pl[1], pl[0])
	}
	for _, p := range pl {
		if p.Task.App == "io" && p.Category == "io" {
			t.Fatalf("io task co-located with io: %+v", p)
		}
	}
}

func TestMIBSWorksWithOddQueue(t *testing.T) {
	s := newScorer(MinRuntime)
	m := &MIBS{Scorer: s, QueueLen: 3}
	counts := Counts{EmptyCategory: 6}
	pl, err := m.Schedule(tasks("io", "cpu", "io"), counts, Load{TotalSlots: 6, Queued: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 3 {
		t.Fatalf("placed %d of 3", len(pl))
	}
}

func TestMIBSStopsWhenClusterFull(t *testing.T) {
	s := newScorer(MinRuntime)
	m := &MIBS{Scorer: s, QueueLen: 8}
	pl, err := m.Schedule(tasks("io", "cpu", "io", "cpu"), Counts{EmptyCategory: 2}, Load{TotalSlots: 2, Queued: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 2 {
		t.Fatalf("placed %d on a 2-slot cluster", len(pl))
	}
}

// totalScore sums the placement scores of an assignment, MIX's criterion.
func totalScore(t *testing.T, s *Scorer, pl []Placement) float64 {
	t.Helper()
	total := 0.0
	for _, p := range pl {
		sc, err := s.PlacementScore(p.Task.App, p.Category)
		if err != nil {
			t.Fatal(err)
		}
		total += sc
	}
	return total
}

func TestMIXAtLeastAsGoodAsMIBS(t *testing.T) {
	// With a queue whose head is adversarial for MIBS, MIX's rotation must
	// find an assignment whose predicted total is no worse.
	for _, queue := range [][]string{
		{"io", "io", "cpu", "cpu"},
		{"io", "io", "io", "cpu"},
		{"mid", "io", "cpu", "io"},
		{"cpu", "mid", "mid", "io"},
	} {
		s := newScorer(MinRuntime)
		mibs := &MIBS{Scorer: s, QueueLen: 4}
		mix := &MIX{Scorer: s, QueueLen: 4}
		counts := Counts{EmptyCategory: 4}

		plB, err := mibs.Schedule(tasks(queue...), counts.Clone(), Load{TotalSlots: 4, Queued: 4})
		if err != nil {
			t.Fatal(err)
		}
		plX, err := mix.Schedule(tasks(queue...), counts.Clone(), Load{TotalSlots: 4, Queued: 4})
		if err != nil {
			t.Fatal(err)
		}
		scB, scX := totalScore(t, s, plB), totalScore(t, s, plX)
		if scX > scB+1e-9 {
			t.Fatalf("queue %v: MIX score %v worse than MIBS %v", queue, scX, scB)
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	s := newScorer(MinRuntime)
	cases := map[string]Scheduler{
		"FIFO":     FIFO{},
		"MIOSRT":   &MIOS{Scorer: s},
		"MIBS8-RT": &MIBS{Scorer: s, QueueLen: 8},
		"MIX4-RT":  &MIX{Scorer: s, QueueLen: 4},
	}
	for want, sch := range cases {
		if got := sch.Name(); got != want {
			t.Errorf("Name = %q want %q", got, want)
		}
	}
	io := NewScorer(fakePred{}, MaxIOPS)
	if got := (&MIBS{Scorer: io, QueueLen: 2}).Name(); got != "MIBS2-IO" {
		t.Errorf("Name = %q", got)
	}
}

func TestFreePoolPopOrderAndCategories(t *testing.T) {
	p := NewFreePool()
	p.SetFree(3, 0, EmptyCategory)
	p.SetFree(3, 1, EmptyCategory)
	p.SetFree(1, 1, "cpu")
	p.SetFree(2, 0, "io")

	if got := p.Counts(nil); got[EmptyCategory] != 2 || got["cpu"] != 1 || got["io"] != 1 {
		t.Fatalf("counts = %v", got)
	}
	// AnyCategory is FIFO over VMs: (3,0) was freed first.
	m, sl, err := p.Pop(AnyCategory)
	if err != nil || m != 3 || sl != 0 {
		t.Fatalf("Pop(Any) = %d,%d,%v", m, sl, err)
	}
	// Category pop takes the lowest-indexed slot within the category.
	m, sl, err = p.Pop(EmptyCategory)
	if err != nil || m != 3 || sl != 1 {
		t.Fatalf("Pop(empty) = %d,%d,%v", m, sl, err)
	}
	if _, _, err := p.Pop("io"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Pop("cpu"); err != nil {
		t.Fatal(err)
	}
	// Everything is consumed now.
	if _, _, err := p.Pop(AnyCategory); err == nil {
		t.Fatal("popped from empty pool")
	}
}

func TestFreePoolRecategorize(t *testing.T) {
	p := NewFreePool()
	p.SetFree(0, 1, "io")
	p.SetFree(0, 1, "cpu") // neighbour changed
	if got := p.Counts(nil); got["io"] != 0 || got["cpu"] != 1 {
		t.Fatalf("counts = %v", got)
	}
	if _, _, err := p.Pop("io"); err == nil {
		t.Fatal("stale category pop succeeded")
	}
	m, sl, err := p.Pop("cpu")
	if err != nil || m != 0 || sl != 1 {
		t.Fatalf("Pop = %d,%d,%v", m, sl, err)
	}
}

func TestFreePoolSetBusyIdempotent(t *testing.T) {
	p := NewFreePool()
	p.SetFree(0, 0, EmptyCategory)
	markBusy(p, 0, 0)
	markBusy(p, 0, 0)
	if p.FreeSlots() != 0 {
		t.Fatalf("FreeSlots = %d", p.FreeSlots())
	}
	if _, ok := category(p, 0, 0); ok {
		t.Fatal("busy slot still categorized")
	}
}

func TestFreePoolDuplicateSetFreeSameCategory(t *testing.T) {
	p := NewFreePool()
	p.SetFree(0, 0, "cpu")
	p.SetFree(0, 0, "cpu")
	if got := p.Counts(nil)["cpu"]; got != 1 {
		t.Fatalf("duplicate SetFree inflated count to %d", got)
	}
}

func TestPlacementsAreExecutable(t *testing.T) {
	// Whatever a scheduler returns must be executable against a real pool
	// holding the same counts.
	s := newScorer(MinRuntime)
	for _, sch := range []Scheduler{FIFO{}, &MIOS{Scorer: s}, &MIBS{Scorer: s, QueueLen: 4}, &MIX{Scorer: s, QueueLen: 4}} {
		p := NewFreePool()
		p.SetFree(0, 0, EmptyCategory)
		p.SetFree(0, 1, EmptyCategory)
		p.SetFree(1, 0, "cpu")
		p.SetFree(2, 1, "io")
		pl, err := sch.Schedule(tasks("io", "cpu", "mid"), p.Counts(nil), Load{TotalSlots: 8, Queued: 3})
		if err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
		used := map[string]bool{}
		for _, place := range pl {
			m, sl, err := p.Pop(place.Category)
			if err != nil {
				t.Fatalf("%s: unexecutable placement %+v: %v", sch.Name(), place, err)
			}
			key := fmt.Sprintf("%d/%d", m, sl)
			if used[key] {
				t.Fatalf("%s: slot %s assigned twice", sch.Name(), key)
			}
			used[key] = true
			// Executing a placement onto an empty machine recategorizes the
			// sibling slot, as the engine would.
			if place.Category == EmptyCategory {
				sibling := 1 - sl
				if _, ok := category(p, m, sibling); ok {
					p.SetFree(m, sibling, place.Task.App)
				}
			}
		}
	}
}

// TestSortedCategoriesDeterministic: whatever order the predictor lists
// its apps in, the table walks the empty category first and then names in
// sorted order, which is the schedulers' tie-break.
func TestSortedCategoriesDeterministic(t *testing.T) {
	pred := newSynthPred(4, 6) // lists its apps shuffled
	tab, err := NewScorer(pred, MinRuntime).table()
	if err != nil {
		t.Fatal(err)
	}
	if tab.names[0] != EmptyCategory || !sort.StringsAreSorted(tab.names) || len(tab.names) != len(pred.apps)+1 {
		t.Fatalf("ordinals = %v", tab.names)
	}
	for o, name := range tab.names[1:] {
		if got, err := tab.app(name); err != nil || got != o+1 {
			t.Fatalf("app(%q) = %d, %v; want %d", name, got, err, o+1)
		}
	}
}

func TestLoadFraction(t *testing.T) {
	counts := Counts{EmptyCategory: 4} // 4 free of 8 → 4 occupied
	l := Load{TotalSlots: 8, Queued: 2}
	if got := l.Fraction(counts); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Fraction = %v want 0.75", got)
	}
	// Saturates at 1.
	if got := (Load{TotalSlots: 8, Queued: 100}).Fraction(counts); got != 1 {
		t.Fatalf("Fraction = %v want 1", got)
	}
	// Degenerate cluster counts as fully loaded.
	if got := (Load{}).Fraction(counts); got != 1 {
		t.Fatalf("Fraction = %v want 1", got)
	}
}

func TestMIXForcedRotationBeatsDegenerateHead(t *testing.T) {
	// A situation where Min-Min's head choice is fine but MIX must at least
	// match MIBS on every queue permutation.
	s := newScorer(MinRuntime)
	for _, perm := range [][]string{
		{"io", "cpu", "io", "cpu"},
		{"cpu", "cpu", "io", "io"},
		{"io", "io", "cpu", "cpu"},
	} {
		mibs := &MIBS{Scorer: s, QueueLen: 4}
		mix := &MIX{Scorer: s, QueueLen: 4}
		load := Load{TotalSlots: 4, Queued: 4}
		plB, err := mibs.Schedule(tasks(perm...), Counts{EmptyCategory: 4}, load)
		if err != nil {
			t.Fatal(err)
		}
		plX, err := mix.Schedule(tasks(perm...), Counts{EmptyCategory: 4}, load)
		if err != nil {
			t.Fatal(err)
		}
		scB, scX := totalScore(t, s, plB), totalScore(t, s, plX)
		if scX > scB+1e-9 {
			t.Fatalf("perm %v: MIX %v worse than MIBS %v", perm, scX, scB)
		}
	}
}

func TestPairScorePhaseAwareness(t *testing.T) {
	// pair(io, io): both predicted at 1000 from solos of 100 → they crawl
	// together and finish together: total 2000, extra 1800.
	s := newScorer(MinRuntime)
	got, err := s.PairScore("io", "io")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1800) > 1e-9 {
		t.Fatalf("PairScore(io,io) = %v want 1800", got)
	}
	// pair(io, cpu): io paired 105, cpu paired 110. io finishes at 105;
	// cpu then has 100·(1−105/110) ≈ 4.55 left → total ≈ 105+109.55,
	// extra ≈ 14.55.
	got, err = s.PairScore("io", "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-14.545454545454547) > 1e-6 {
		t.Fatalf("PairScore(io,cpu) = %v", got)
	}
	// Symmetry and caching.
	rev, err := s.PairScore("cpu", "io")
	if err != nil {
		t.Fatal(err)
	}
	if rev != got {
		t.Fatalf("PairScore not symmetric: %v vs %v", rev, got)
	}
}

func TestEmptyScoreScalesWithLoad(t *testing.T) {
	s := newScorer(MinRuntime)
	empty := func(app string, load Load) float64 {
		p := newTestPass(t, s, tasks("io", app), Counts{EmptyCategory: 4}, load)
		a, _ := p.t.app(app)
		return p.emptyScore(a)
	}
	if zero := empty("io", Load{TotalSlots: 4}); zero != 0 {
		t.Fatalf("zero-load empty score = %v", zero)
	}
	half := empty("io", Load{TotalSlots: 8})
	full := empty("io", Load{TotalSlots: 4, Queued: 100})
	if !(half > 0 && math.Abs(full-2*half) < 1e-9) {
		t.Fatalf("empty score not linear in load: %v vs %v", half, full)
	}
	if cpu := empty("cpu", Load{TotalSlots: 4, Queued: 4}); cpu <= 0 {
		t.Fatalf("empty score for cpu = %v", cpu)
	}
}

func TestMeanPairOverWeightsCounts(t *testing.T) {
	s := newScorer(MinRuntime)
	p := newTestPass(t, s, tasks("io", "io", "cpu"), Counts{}, Load{})
	pIOIO, _ := s.PairScore("io", "io")
	pIOCPU, _ := s.PairScore("io", "cpu")
	want := (2*pIOIO + pIOCPU) / 3
	if io, _ := p.t.app("io"); math.Abs(p.mean[io]-want) > 1e-9 {
		t.Fatalf("mean[io] = %v want %v", p.mean[io], want)
	}
	if mid, _ := p.t.app("mid"); p.mean[mid] != 0 {
		t.Fatalf("mean of an app outside the batch = %v", p.mean[mid])
	}
}

// TestNewPolicies: sched.New builds each of the four policies by name over
// the given scorer and queue length, and rejects any other name.
func TestNewPolicies(t *testing.T) {
	scorer := newScorer(MinRuntime)
	cases := []struct {
		policy string
		queue  int
		want   string // Name() of the built scheduler; "" means an error
	}{
		{"fifo", 0, "FIFO"},
		{"mios", 0, "MIOSRT"},
		{"mibs", 8, "MIBS8-RT"},
		{"mix", 4, "MIX4-RT"},
		{"MIBS", 8, ""},
		{"", 0, ""},
	}
	for _, c := range cases {
		s, err := New(c.policy, c.queue, scorer)
		if c.want == "" {
			if err == nil {
				t.Errorf("New(%q) built %s, want an error", c.policy, s.Name())
			}
			continue
		}
		if err != nil {
			t.Errorf("New(%q): %v", c.policy, err)
			continue
		}
		if s.Name() != c.want {
			t.Errorf("New(%q).Name() = %q, want %q", c.policy, s.Name(), c.want)
		}
	}
}
