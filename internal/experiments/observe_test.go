package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tracon/internal/simobs"
)

// observeSuite is a small cross-section of the evaluation touching the
// static, dynamic and per-policy code paths.
func observeSuite() []Experiment {
	return []Experiment{
		{"table1", func(e *Env) (fmt.Stringer, error) { return Table1(e) }},
		{"fig4", func(e *Env) (fmt.Stringer, error) { return Fig4(e, 4) }},
		{"fig9", func(e *Env) (fmt.Stringer, error) { return Fig9(e, []float64{2, 50}, 1) }},
	}
}

func renderOutcomes(t *testing.T, ocs []Outcome) string {
	t.Helper()
	var b strings.Builder
	for _, oc := range ocs {
		if oc.Err != nil {
			t.Fatalf("%s: %v", oc.Name, oc.Err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s\n", oc.Name, oc.Result.String())
	}
	return b.String()
}

// TestObserversDoNotPerturbExperiments is the tentpole's safety guarantee
// at the experiment level: attaching metrics plus an invariant auditor to
// every simulation run leaves the rendered experiment
// output byte-identical to the unobserved baseline, the audit finds zero
// violations, and the deterministic metrics export is byte-identical
// across Runner worker counts.
func TestObserversDoNotPerturbExperiments(t *testing.T) {
	e := testEnv(t)
	suite := observeSuite()

	baseline := renderOutcomes(t, Runner{Workers: 2}.Run(e, suite))

	observed := func(workers int) (output, metricsJSON, metricsCSV string, violations int64, runs int) {
		set := simobs.New(simobs.Options{Metrics: true, Audit: true, AuditEvery: 16})
		e.Observe = set.Observer
		defer func() { e.Observe = nil }()
		out := renderOutcomes(t, Runner{Workers: workers}.Run(e, suite))
		var j, c bytes.Buffer
		if err := set.WriteMetricsJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := set.WriteMetricsCSV(&c); err != nil {
			t.Fatal(err)
		}
		return out, j.String(), c.String(), set.Violations(), set.Len()
	}

	out1, json1, csv1, viol1, runs1 := observed(1)
	out4, json4, csv4, viol4, runs4 := observed(4)

	if viol1 != 0 || viol4 != 0 {
		t.Fatalf("invariant violations: %d sequential, %d parallel", viol1, viol4)
	}
	if out1 != baseline {
		t.Errorf("observers perturbed experiment output; first divergence:\n%s", firstDiff(baseline, out1))
	}
	if out4 != baseline {
		t.Errorf("observers perturbed parallel experiment output; first divergence:\n%s", firstDiff(baseline, out4))
	}
	if runs1 == 0 || runs1 != runs4 {
		t.Fatalf("collected %d runs sequentially, %d with 4 workers", runs1, runs4)
	}
	if json1 != json4 {
		t.Errorf("metrics JSON differs across worker counts; first divergence:\n%s", firstDiff(json1, json4))
	}
	if csv1 != csv4 {
		t.Errorf("metrics CSV differs across worker counts; first divergence:\n%s", firstDiff(csv1, csv4))
	}
}
