package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"tracon/internal/fault"
	"tracon/internal/obs"
	"tracon/internal/sched"
	"tracon/internal/sim"
	"tracon/internal/simobs"
)

// observedGolden pins the seed-1 observed exports of observedSlice: the
// trace NDJSON, the metrics JSON and CSV and the invariant auditors'
// summaries in label order, once fault-free and once
// under goldenFaultPlan. The four metrics digests were re-captured when the
// free pool's two heap high-water marks (max_pool_global_heap,
// max_pool_category_heap) left the JSON and CSV; every other field and
// column was unchanged. The trace and metrics digests of both passes were
// re-captured when a stale completion or timeout stopped moving the clock:
// fig4's static batches run to completion, and now end (and bill energy)
// at their last event. The audits held.
var observedGolden = map[string]string{
	"clean/trace":         "42bd80f8a583bffc0bd5a3c48f1497c1a4a0e999eda7a84bb78de277d3483fe6",
	"clean/metrics.json":  "cfc65ef3fcc28db8c8d5894c708075d89257fa49470c1fcb20a484196e9e67aa",
	"clean/metrics.csv":   "d38d4fba2750e8a32686ed7bc0191638cdcb992cd3435f78c1a3e4385daee934",
	"clean/audit":         "ab4da6fb65007b4a9b1b79052b56a56591e87afe9ec0968e96a4e97832ca59c3",
	"faults/trace":        "c880e150612d9e1d99b9a10864affbba161e0703db70861f9dabdf8b6fbe26a9",
	"faults/metrics.json": "c6491b4aa316229b0c7c95adf40672bb70aba17f4c2bc66e9c6eceb801b8cd66",
	"faults/metrics.csv":  "8036f6355c36e3009460966ae545729b178fe0067de74f6c18c57f007916e495",
	"faults/audit":        "6c11b154280b35c271e36ad958f4bd76a099cd2b27bced2bb2385bcc29012693",
}

// goldenFaultPlan injects every fault kind the engine traces into a 64
// machine run: crashes with and without recovery evict attempts, a stalled
// slot makes attempts time out, probabilistic failures fail them, and a
// two-attempt budget turns some of those into lost tasks.
func goldenFaultPlan() *fault.Plan {
	return &fault.Plan{
		Seed:        11,
		FailProb:    0.05,
		TaskTimeout: 900,
		Crashes: []fault.Crash{
			{Machine: 0, DownAt: 120, UpAt: 700},
			{Machine: 5, DownAt: 300},
		},
		Slowdowns: []fault.Slowdown{
			{Machine: 1, Slot: 0, From: 0, To: 1500, Factor: 0},
			{Machine: 2, Slot: 1, From: 200, To: 800, Factor: 0.5},
		},
		Retry: fault.RetryPolicy{MaxAttempts: 2, Backoff: 5, BackoffFactor: 2, MaxBackoff: 60},
	}
}

// observedSlice is the compact evaluation slice behind observedGolden:
// the static, per-model-family and dynamic code paths.
func observedSlice() []Experiment {
	return []Experiment{
		{"table1", func(e *Env) (fmt.Stringer, error) { return Table1(e) }},
		{"fig4", func(e *Env) (fmt.Stringer, error) { return Fig4(e, 2) }},
		{"fig9", func(e *Env) (fmt.Stringer, error) { return Fig9(e, []float64{50}, 0.5) }},
	}
}

// observedExports runs observedSlice on two workers with metrics, traces
// and a non-strict auditor attached to every run, plan injected when
// non-nil, and returns each export's SHA-256 plus the trace NDJSON for the
// caller's coverage checks.
func observedExports(t *testing.T, e *Env, plan *fault.Plan) (map[string]string, string) {
	t.Helper()
	runs := simobs.New(simobs.Options{Metrics: true, Trace: true, Audit: true, AuditEvery: 16})
	if plan != nil {
		e.Faults = func(kind, scheduler string, machines int, tasks []sched.Task) *fault.Plan {
			return plan.ForMachines(machines)
		}
	}
	e.Observe = runs.Observer
	defer func() { e.Faults, e.Observe = nil, nil }()
	renderOutcomes(t, Runner{Workers: 2}.Run(e, observedSlice()))

	var ndjson, mjson, mcsv, audit bytes.Buffer
	for _, write := range []func() error{
		func() error { return runs.WriteNDJSON(&ndjson) },
		func() error { return runs.WriteMetricsJSON(&mjson) },
		func() error { return runs.WriteMetricsCSV(&mcsv) },
		func() error { return runs.WriteAudit(&audit) },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
	}
	if n := runs.Violations(); n != 0 {
		t.Errorf("%d invariant violations:\n%s", n, audit.String())
	}
	if n := runs.Collisions(); n != 0 {
		t.Errorf("%d run-label collisions", n)
	}
	sum := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	return map[string]string{
		"trace":        sum(ndjson.Bytes()),
		"metrics.json": sum(mjson.Bytes()),
		"metrics.csv":  sum(mcsv.Bytes()),
		"audit":        sum(audit.Bytes()),
	}, ndjson.String()
}

// TestObservedExportsGolden: the observed exports of the seed-1 slice,
// fault-free and fault-injected, hash to the pinned digests. The fault
// pass must carry every fault kind, so each of the engine's fault trace
// sites feeds the digest.
func TestObservedExportsGolden(t *testing.T) {
	e := testEnv(t)
	for _, pass := range []struct {
		name string
		plan *fault.Plan
	}{{"clean", nil}, {"faults", goldenFaultPlan()}} {
		got, ndjson := observedExports(t, e, pass.plan)
		for _, k := range []string{"trace", "metrics.json", "metrics.csv", "audit"} {
			key := pass.name + "/" + k
			if got[k] != observedGolden[key] {
				t.Errorf("%s: sha256 %s, golden %s", key, got[k], observedGolden[key])
			}
		}
		if pass.plan == nil {
			continue
		}
		runs, err := obs.ReadTraces(strings.NewReader(ndjson))
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]bool{}
		for _, r := range runs {
			for _, ev := range r.Events {
				kinds[ev.Kind] = true
			}
		}
		for _, k := range []string{sim.FaultFail, sim.FaultTimeout, sim.FaultEvict, sim.FaultRetry,
			sim.FaultLost, sim.FaultMachineDown, sim.FaultMachineUp} {
			if !kinds[k] {
				t.Errorf("faults: no %q event in the trace", k)
			}
		}
	}
}
