package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"tracon/internal/fault"
	"tracon/internal/obs"
	"tracon/internal/sched"
	"tracon/internal/sim"
)

// observedGolden pins the seed-1 observed exports of observedSlice: the
// trace NDJSON, the metrics JSON and CSV (wall latency excluded) and the
// invariant auditors' summaries in label order, once fault-free and once
// under goldenFaultPlan.
var observedGolden = map[string]string{
	"clean/trace":         "5741e874a823d0a3a5796ea4a14101b959950ca6c938e0ef8fb568f0d839fd5e",
	"clean/metrics.json":  "474e9c354995787160334ab646adb61459d62e1b24907b9808e11e3a29e337f3",
	"clean/metrics.csv":   "889e900aded8294e40a6f7fc7286f4e39fc548d4182980c6527486cae2c751ca",
	"clean/audit":         "ab4da6fb65007b4a9b1b79052b56a56591e87afe9ec0968e96a4e97832ca59c3",
	"faults/trace":        "3627d431dc27c6145ca60d859c73ce815a63d62776c0b241efcc2d1acf6b14c7",
	"faults/metrics.json": "d1e248dab11e845e8b1f3cf6f95ee3ced5c9cf1c3123910112d01a5c81fa6df1",
	"faults/metrics.csv":  "8fe0c1f8ac0407e81fbcab1274a2d534b323b6a91dedfa4301180b6e00cc25cd",
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

// observedExports runs observedSlice on two workers with a metrics
// collector, a trace collector and a non-strict auditor attached to every
// run, plan injected when non-nil, and returns each export's SHA-256 plus
// the trace NDJSON for the caller's coverage checks.
func observedExports(t *testing.T, e *Env, plan *fault.Plan) (map[string]string, string) {
	t.Helper()
	collector := obs.NewCollector()
	traces := obs.NewTraceCollector(obs.DefaultTraceCap)
	var mu sync.Mutex
	auditors := map[string]*obs.InvariantAuditor{}
	if plan != nil {
		e.Faults = func(kind, scheduler string, machines int, tasks []sched.Task) *fault.Plan {
			return plan.ForMachines(machines)
		}
	}
	e.Observe = func(kind, scheduler string, machines int, tasks []sched.Task) sim.Observer {
		label := obs.RunLabel(kind, scheduler, machines, tasks)
		a := &obs.InvariantAuditor{Every: 16}
		mu.Lock()
		auditors[label] = a
		mu.Unlock()
		return obs.Multi{collector.Observer(label), traces.Tracer(label, scheduler, machines), a}
	}
	defer func() { e.Faults, e.Observe = nil, nil }()
	renderOutcomes(t, Runner{Workers: 2}.Run(e, observedSlice()))

	var ndjson, mjson, mcsv bytes.Buffer
	if err := traces.WriteNDJSON(&ndjson); err != nil {
		t.Fatal(err)
	}
	if err := collector.WriteJSON(&mjson, false); err != nil {
		t.Fatal(err)
	}
	if err := collector.WriteCSV(&mcsv); err != nil {
		t.Fatal(err)
	}
	labels := make([]string, 0, len(auditors))
	for l := range auditors {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var audit strings.Builder
	for _, l := range labels {
		if n := auditors[l].Total(); n != 0 {
			t.Errorf("%s: %d invariant violations", l, n)
		}
		fmt.Fprintf(&audit, "%s %s\n", l, auditors[l].Summary())
	}
	sum := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	return map[string]string{
		"trace":        sum(ndjson.Bytes()),
		"metrics.json": sum(mjson.Bytes()),
		"metrics.csv":  sum(mcsv.Bytes()),
		"audit":        sum([]byte(audit.String())),
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
