package experiments

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tracon/internal/model"
	"tracon/internal/sched"
	"tracon/internal/workload"
)

// envFingerprint renders every artifact of an Env into a canonical string:
// training samples, solo profiles, library predictions and the full
// interference table. Two Envs fingerprint identically iff the evaluation
// built on them is byte-identical, so this is what the determinism golden
// tests compare. %v prints float64s in shortest round-trip form, making
// the comparison exact to the last bit.
func envFingerprint(e *Env) string {
	var b strings.Builder
	names := e.BenchmarkNames()
	fmt.Fprintf(&b, "seed=%d benchmarks=%v backgrounds=%d\n", e.Seed, names, len(e.Backgrounds))
	for _, app := range names {
		ts := e.TrainingSets[app]
		fmt.Fprintf(&b, "ts %s features=%v solo=%v\n", app, ts.Features, e.Solo[app])
		for i, s := range ts.Samples {
			fmt.Fprintf(&b, "  sample %d bg=%v rt=%v io=%v\n", i, s.BG, s.Runtime, s.IOPS)
		}
	}
	kinds := append([]model.Kind(nil), envLibraryKinds...)
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		lib := e.Libraries[k]
		fmt.Fprintf(&b, "library %v apps=%v\n", k, lib.Apps())
		for _, target := range names {
			for _, co := range append([]string{""}, names...) {
				rt, err := lib.PredictRuntime(target, co)
				if err != nil {
					fmt.Fprintf(&b, "  err %v\n", err)
					continue
				}
				io, _ := lib.PredictIOPS(target, co)
				fmt.Fprintf(&b, "  predict %s|%s rt=%v io=%v\n", target, co, rt, io)
			}
		}
	}
	for _, a := range e.Table.Apps() {
		fmt.Fprintf(&b, "table %s solo rt=%v io=%v ops=%v util=%v\n",
			a, e.Table.SoloRuntime(a), e.Table.SoloIOPS(a), e.Table.Ops(a), e.Table.Util(a, ""))
		for _, n := range e.Table.Apps() {
			fmt.Fprintf(&b, "  pair %s|%s rate=%v io=%v util=%v\n",
				a, n, e.Table.Rate(a, n), e.Table.IOPS(a, n), e.Table.Util(a, n))
		}
	}
	return b.String()
}

// TestNewEnvParallelMatchesSequential is the determinism golden test of
// the tentpole guarantee: for the same seed, NewEnvParallel produces the
// exact Env the sequential build produces, at every worker count. Seed 42
// is skipped under -short to keep the race pass fast.
func TestNewEnvParallelMatchesSequential(t *testing.T) {
	seeds := []int64{1, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seq, err := NewEnvParallel(seed, 1)
		if err != nil {
			t.Fatalf("seed %d sequential: %v", seed, err)
		}
		want := envFingerprint(seq)
		for _, workers := range []int{4} {
			par, err := NewEnvParallel(seed, workers)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			got := envFingerprint(par)
			if got != want {
				t.Errorf("seed %d: parallel (workers=%d) Env differs from sequential; first divergence:\n%s",
					seed, workers, firstDiff(want, got))
			}
		}
	}
}

// TestRunnerParallelMatchesSequential runs a representative slice of the
// evaluation — a table, a static figure and a dynamic figure — through the
// Runner at worker counts 1 and 4 and asserts the rendered outputs are
// byte-identical.
func TestRunnerParallelMatchesSequential(t *testing.T) {
	e := testEnv(t)
	suite := []Experiment{
		{"table1", func(e *Env) (fmt.Stringer, error) { return Table1(e) }},
		{"fig4", func(e *Env) (fmt.Stringer, error) { return Fig4(e, 4) }},
		{"fig9", func(e *Env) (fmt.Stringer, error) { return Fig9(e, []float64{2, 50}, 1) }},
	}
	render := func(ocs []Outcome) string {
		var b strings.Builder
		for _, oc := range ocs {
			if oc.Err != nil {
				t.Fatalf("%s: %v", oc.Name, oc.Err)
			}
			fmt.Fprintf(&b, "== %s ==\n%s\n", oc.Name, oc.Result.String())
		}
		return b.String()
	}
	want := render(Runner{Workers: 1}.Run(e, suite))
	for _, workers := range []int{1, 4} {
		got := render(Runner{Workers: workers}.Run(e, suite))
		if got != want {
			t.Errorf("workers=%d output differs; first divergence:\n%s", workers, firstDiff(want, got))
		}
	}
}

// TestRunnerKeepsOrderAndIsolatesErrors: outcomes come back in input order
// and one failing experiment does not poison the rest.
func TestRunnerKeepsOrderAndIsolatesErrors(t *testing.T) {
	e := testEnv(t)
	boom := fmt.Errorf("deliberate failure")
	suite := []Experiment{
		{"ok1", func(e *Env) (fmt.Stringer, error) { return Table1(e) }},
		{"bad", func(e *Env) (fmt.Stringer, error) { return nil, boom }},
		{"ok2", func(e *Env) (fmt.Stringer, error) { return Table1(e) }},
	}
	ocs := Runner{Workers: 4}.Run(e, suite)
	if len(ocs) != 3 || ocs[0].Name != "ok1" || ocs[1].Name != "bad" || ocs[2].Name != "ok2" {
		t.Fatalf("outcome order broken: %+v", ocs)
	}
	if ocs[1].Err != boom {
		t.Errorf("bad experiment error = %v", ocs[1].Err)
	}
	if ocs[0].Err != nil || ocs[2].Err != nil {
		t.Errorf("healthy experiments poisoned: %v / %v", ocs[0].Err, ocs[2].Err)
	}
	if ocs[0].Result == nil || ocs[2].Result == nil {
		t.Error("healthy experiments missing results")
	}
}

func TestSuiteSelection(t *testing.T) {
	suite := Suite(DefaultSuiteOptions(true))
	if len(suite) != 12 {
		t.Fatalf("suite has %d experiments", len(suite))
	}
	sub, err := SelectExperiments(suite, map[string]bool{"fig3": true, "table1": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 || sub[0].Name != "table1" || sub[1].Name != "fig3" {
		t.Fatalf("selection broken: %+v", sub)
	}
	if _, err := SelectExperiments(suite, map[string]bool{"fig99": true}); err == nil {
		t.Error("unknown experiment name must fail fast")
	}
	all, err := SelectExperiments(suite, nil)
	if err != nil || len(all) != len(suite) {
		t.Errorf("empty selection must mean everything")
	}
	withSpot := Suite(SuiteOptions{SpotCheck: true, SpotCheckHours: 1})
	if withSpot[len(withSpot)-1].Name != "spotcheck" {
		t.Error("spotcheck missing from suite")
	}
}

// TestNewSchedulerTable covers every policy constructor and the error
// paths of the -only/policy plumbing.
func TestNewSchedulerTable(t *testing.T) {
	e := testEnv(t)
	scorer := e.scorerFor(model.NLM, sched.MinRuntime)
	cases := []struct {
		policy  string
		queue   int
		wantErr bool
		check   func(sched.Scheduler) error
	}{
		{"fifo", 0, false, func(s sched.Scheduler) error {
			if _, ok := s.(sched.FIFO); !ok {
				return fmt.Errorf("got %T", s)
			}
			return nil
		}},
		{"mios", 0, false, func(s sched.Scheduler) error {
			m, ok := s.(*sched.MIOS)
			if !ok || m.Scorer != scorer {
				return fmt.Errorf("got %T scorer=%v", s, ok)
			}
			return nil
		}},
		{"mibs", 8, false, func(s sched.Scheduler) error {
			m, ok := s.(*sched.MIBS)
			if !ok || m.QueueLen != 8 {
				return fmt.Errorf("got %T", s)
			}
			return nil
		}},
		{"mix", 4, false, func(s sched.Scheduler) error {
			m, ok := s.(*sched.MIX)
			if !ok || m.QueueLen != 4 {
				return fmt.Errorf("got %T", s)
			}
			return nil
		}},
		{"MIBS", 8, true, nil}, // case-sensitive
		{"round-robin", 0, true, nil},
		{"", 0, true, nil},
	}
	for _, c := range cases {
		s, err := sched.New(c.policy, c.queue, scorer)
		if c.wantErr {
			if err == nil {
				t.Errorf("policy %q: expected error, got %T", c.policy, s)
			} else if !strings.Contains(err.Error(), "unknown policy") {
				t.Errorf("policy %q: unhelpful error %v", c.policy, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("policy %q: %v", c.policy, err)
			continue
		}
		if err := c.check(s); err != nil {
			t.Errorf("policy %q: %v", c.policy, err)
		}
	}
}

// TestTaskGeneratorsSeedStable pins down the seed contract of the three
// task generators: same seed → same task list, different seed → different
// list. The parallel runner depends on this to keep per-experiment
// arrivals reproducible no matter which worker runs them.
func TestTaskGeneratorsSeedStable(t *testing.T) {
	type gen struct {
		name string
		make func(seed int64) interface{}
	}
	gens := []gen{
		{"batchTasks/mix", func(seed int64) interface{} {
			return batchTasks(workload.NewMixer(seed).Batch(workload.MediumIO, 64))
		}},
		{"batchTasks/uniform", func(seed int64) interface{} {
			return batchTasks(workload.NewMixer(seed).UniformBatch(64))
		}},
		{"poissonTasks", func(seed int64) interface{} {
			return poissonTasks(workload.HeavyIO, 30, 1800, seed)
		}},
	}
	for _, g := range gens {
		a, b := g.make(7), g.make(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different task lists", g.name)
		}
		c := g.make(8)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds produced identical task lists", g.name)
		}
	}
	// Arrival times must be non-decreasing and inside the horizon.
	for _, task := range poissonTasks(workload.LightIO, 10, 600, 3) {
		if task.Arrival < 0 || task.Arrival > 600 {
			t.Fatalf("arrival %v outside horizon", task.Arrival)
		}
	}
}

// firstDiff locates the first differing line of two renderings — a full
// dump of two fingerprints would be megabytes.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  sequential: %s\n  parallel:   %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d lines", len(wl), len(gl))
}
