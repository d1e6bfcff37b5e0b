package experiments

import (
	"bytes"
	"strings"
	"testing"

	"tracon/internal/obs"
	"tracon/internal/sched"
	"tracon/internal/sim"
)

// tracedSuite runs the experiment cross-section with a trace collector
// attached and returns the rendered output plus the NDJSON export.
func tracedSuite(t *testing.T, e *Env, workers int) (output, ndjson string, collisions int) {
	t.Helper()
	collector := obs.NewTraceCollector(obs.DefaultTraceCap)
	e.Observe = func(kind, scheduler string, machines int, tasks []sched.Task) sim.Observer {
		return collector.Tracer(obs.RunLabel(kind, scheduler, machines, tasks), scheduler, machines)
	}
	defer func() { e.Observe = nil }()
	out := renderOutcomes(t, Runner{Workers: workers}.Run(e, observeSuite()))
	var buf bytes.Buffer
	if err := collector.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return out, buf.String(), collector.Collisions()
}

// TestTraceExportDeterministicAcrossWorkers is the tentpole's golden
// guarantee: the NDJSON trace export is byte-identical no matter how many
// Runner workers executed the suite, run labels are input-unique
// (zero collisions), and attaching tracers leaves the rendered experiment
// output byte-identical to the untraced baseline.
func TestTraceExportDeterministicAcrossWorkers(t *testing.T) {
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
		baseline := renderOutcomes(t, Runner{Workers: 2}.Run(e, observeSuite()))

		var first string
		for _, workers := range []int{1, 2, 8} {
			out, ndjson, collisions := tracedSuite(t, e, workers)
			if collisions != 0 {
				t.Fatalf("seed %d, %d workers: %d run-label collisions — labels are not input-unique", seed, workers, collisions)
			}
			if out != baseline {
				t.Errorf("seed %d: tracers perturbed experiment output at %d workers; first divergence:\n%s",
					seed, workers, firstDiff(baseline, out))
			}
			if first == "" {
				first = ndjson
				continue
			}
			if ndjson != first {
				t.Errorf("seed %d: trace export differs between 1 and %d workers; first divergence:\n%s",
					seed, workers, firstDiff(first, ndjson))
			}
		}

		// The export must be substantive: parse it back and check the
		// lifecycle stages and the fig4 per-model-family labels are present.
		runs, err := obs.ReadTraces(strings.NewReader(first))
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) < 10 {
			t.Fatalf("seed %d: only %d traced runs", seed, len(runs))
		}
		kinds := map[string]bool{}
		labels := map[string]bool{}
		for _, r := range runs {
			labels[r.Label] = true
			for _, ev := range r.Events {
				kinds[ev.Kind] = true
			}
		}
		for _, k := range []string{"arrival", "enqueue", "decision", "pop", "place", "segment", "complete", "done"} {
			if !kinds[k] {
				t.Fatalf("seed %d: no %q events anywhere in the export", seed, k)
			}
		}
		var kindTagged bool
		for l := range labels {
			if strings.Contains(l, "static-") {
				kindTagged = true
				break
			}
		}
		if !kindTagged {
			t.Fatalf("seed %d: fig4 model-family tags missing from labels", seed)
		}
	}
}
