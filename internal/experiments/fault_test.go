package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"tracon/internal/fault"
	"tracon/internal/obs"
	"tracon/internal/sched"
	"tracon/internal/sim"
)

// chaosPlan is the fixed fault plan behind the golden determinism tests:
// two mid-run crashes with recovery, one degraded slot and a small
// key-addressed failure probability. Machines beyond a run's cluster size
// are filtered out per run by ForMachines, exactly as traconbench -faults
// does.
func chaosPlan() *fault.Plan {
	return &fault.Plan{
		Seed:     7,
		FailProb: 0.02,
		Crashes: []fault.Crash{
			{Machine: 0, DownAt: 100, UpAt: 400},
			{Machine: 2, DownAt: 250, UpAt: 600},
		},
		Slowdowns: []fault.Slowdown{
			{Machine: 1, Slot: 0, From: 50, To: 300, Factor: 0.5},
		},
		Retry: fault.RetryPolicy{MaxAttempts: 4, Backoff: 5, BackoffFactor: 2, MaxBackoff: 60},
	}
}

// chaosSuite runs the experiment cross-section under the chaos plan with
// metrics, traces and a strict invariant auditor attached, and returns
// every deterministic artifact.
func chaosSuite(t *testing.T, e *Env, workers int) (output, metricsJSON, ndjson string, violations int64) {
	t.Helper()
	plan := chaosPlan()
	collector := obs.NewCollector()
	traceColl := obs.NewTraceCollector(obs.DefaultTraceCap)
	var mu sync.Mutex
	var auditors []*obs.InvariantAuditor
	e.Faults = func(kind, scheduler string, machines int, tasks []sched.Task) *fault.Plan {
		return plan.ForMachines(machines)
	}
	e.Observe = func(kind, scheduler string, machines int, tasks []sched.Task) sim.Observer {
		label := obs.RunLabel(kind, scheduler, machines, tasks)
		a := &obs.InvariantAuditor{Every: 16, Strict: true}
		mu.Lock()
		auditors = append(auditors, a)
		mu.Unlock()
		return obs.Multi{collector.Observer(label), traceColl.Tracer(label, scheduler, machines), a}
	}
	defer func() { e.Faults, e.Observe = nil, nil }()

	out := renderOutcomes(t, Runner{Workers: workers}.Run(e, observeSuite()))
	var j, n bytes.Buffer
	if err := collector.WriteJSON(&j, false); err != nil {
		t.Fatal(err)
	}
	if err := traceColl.WriteNDJSON(&n); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, a := range auditors {
		total += a.Total()
	}
	return out, j.String(), n.String(), total
}

// TestChaosExperimentsDeterministicAcrossWorkers is the acceptance
// guarantee at the experiment level: a fault-injected sweep — crashes,
// a degraded slot, probabilistic failures, retries — renders byte-identical
// output, metrics JSON and trace NDJSON at every worker count, passes the
// strict invariant audit throughout, and reproduces from the seed.
func TestChaosExperimentsDeterministicAcrossWorkers(t *testing.T) {
	seeds := []int64{1}
	if !testing.Short() {
		seeds = append(seeds, 42)
	}
	for _, seed := range seeds {
		var e *Env
		if seed == 1 {
			e = testEnv(t)
		} else {
			var err error
			e, err = NewEnvParallel(seed, 1)
			if err != nil {
				t.Fatal(err)
			}
		}

		var firstOut, firstJSON, firstNDJSON string
		for _, workers := range []int{1, 2, 8} {
			out, metricsJSON, ndjson, violations := chaosSuite(t, e, workers)
			if violations != 0 {
				t.Fatalf("seed %d, %d workers: %d invariant violations under chaos", seed, workers, violations)
			}
			if firstOut == "" {
				firstOut, firstJSON, firstNDJSON = out, metricsJSON, ndjson
				continue
			}
			if out != firstOut {
				t.Errorf("seed %d: chaos output differs between 1 and %d workers; first divergence:\n%s",
					seed, workers, firstDiff(firstOut, out))
			}
			if metricsJSON != firstJSON {
				t.Errorf("seed %d: chaos metrics JSON differs between 1 and %d workers; first divergence:\n%s",
					seed, workers, firstDiff(firstJSON, metricsJSON))
			}
			if ndjson != firstNDJSON {
				t.Errorf("seed %d: chaos trace NDJSON differs between 1 and %d workers; first divergence:\n%s",
					seed, workers, firstDiff(firstNDJSON, ndjson))
			}
		}

		// The plan must actually have injected and recovered from faults:
		// the trace carries the fault lifecycle and the metrics carry the
		// recovery counters.
		runs, err := obs.ReadTraces(strings.NewReader(firstNDJSON))
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]bool{}
		for _, r := range runs {
			for _, ev := range r.Events {
				kinds[ev.Kind] = true
			}
		}
		for _, k := range []string{"machine_down", "machine_up", "evict", "retry"} {
			if !kinds[k] {
				t.Errorf("seed %d: no %q event in the chaos trace", seed, k)
			}
		}
		if !strings.Contains(firstJSON, `"faults"`) {
			t.Errorf("seed %d: chaos metrics JSON carries no faults section", seed)
		}
	}
}

// TestEmptyFaultFactoryZeroPerturbation: a fault factory handing every run
// an empty (but non-nil) plan must leave the rendered experiment output
// byte-identical to the fault-free baseline.
func TestEmptyFaultFactoryZeroPerturbation(t *testing.T) {
	e := testEnv(t)
	baseline := renderOutcomes(t, Runner{Workers: 2}.Run(e, observeSuite()))

	e.Faults = func(kind, scheduler string, machines int, tasks []sched.Task) *fault.Plan {
		return &fault.Plan{}
	}
	defer func() { e.Faults = nil }()
	out := renderOutcomes(t, Runner{Workers: 2}.Run(e, observeSuite()))
	if out != baseline {
		t.Errorf("empty fault plan perturbed experiment output; first divergence:\n%s", firstDiff(baseline, out))
	}
}
