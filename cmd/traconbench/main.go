// Command traconbench regenerates the TRACON paper's evaluation: every
// table and figure of Section 4, printed as text tables. Individual
// experiments are selected with -only; the heavyweight dynamic sweeps can
// be trimmed with -hours and -quick. Environment construction and the
// experiment sweep fan out across -parallel workers (default GOMAXPROCS);
// the output bytes are identical at every worker count.
//
// Usage:
//
//	traconbench                 # everything, paper-scale where feasible
//	traconbench -quick          # reduced machine counts and horizons
//	traconbench -only fig3,fig7 # a subset
//	traconbench -parallel 1     # sequential reference run
//	traconbench -spotcheck      # include the 10,000-machine run
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"tracon/internal/experiments"
	"tracon/internal/fault"
	"tracon/internal/obs"
	"tracon/internal/sched"
	"tracon/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traconbench: ")

	var (
		only      = flag.String("only", "", "comma-separated subset: table1,fig3,fig4,fig5,fig6,fig7,fig8,fig9,fig10,fig11,fig12,storage")
		quick     = flag.Bool("quick", false, "smaller machine counts and shorter horizons")
		hours     = flag.Float64("hours", 0, "override the dynamic horizon in hours (0 = default)")
		seed      = flag.Int64("seed", 1, "experiment seed")
		spotcheck = flag.Bool("spotcheck", false, "also run the 10,000-machine Sec 4.8 spot check")
		csvDir    = flag.String("csv", "", "also write each experiment's rows as CSV into this directory")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for env construction and experiment fan-out (1 = sequential)")
		metrics   = flag.Bool("metrics", false, "collect per-run simulation metrics; writes metrics_seed<seed>.{json,csv} under -metrics-dir")
		metricDir = flag.String("metrics-dir", "results", "directory for -metrics exports")
		audit     = flag.Bool("audit", false, "attach the invariant auditor to every simulation; exits 1 if any violation is found")
		auditN    = flag.Int("audit-every", 32, "audit full-state scan sampling: one scan per N events (O(1) checks always run)")
		faultPlan = flag.String("faults", "", "inject faults from this JSON plan into every simulation (see EXPERIMENTS.md; the plan is filtered per run to the run's cluster size)")
		traceRuns = flag.Bool("trace", false, "record per-task lifecycle traces; writes trace_seed<seed>.ndjson under -trace-dir (inspect with tracontrace)")
		traceDir  = flag.String("trace-dir", "results", "directory for -trace exports")
		traceCap  = flag.Int("trace-cap", obs.DefaultTraceCap, "per-run trace ring capacity in events; the oldest events drop beyond it")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *parallel < 1 {
		*parallel = 1
	}

	stopProf, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}

	opts := experiments.DefaultSuiteOptions(*quick)
	opts.SpotCheck = *spotcheck
	if *hours > 0 {
		opts.DynHours = *hours
	}
	suite, err := experiments.SelectExperiments(experiments.Suite(opts), want)
	if err != nil {
		log.Fatal(err)
	}

	// Load and validate the fault plan before the (expensive) environment
	// build so a typo'd plan fails in milliseconds, like a bad -only name.
	var plan *fault.Plan
	if *faultPlan != "" {
		if plan, err = fault.LoadFile(*faultPlan); err != nil {
			log.Fatalf("loading fault plan: %v", err)
		}
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "building environment (profiling 8 apps × 125 workloads, training models, %d workers)...\n", *parallel)
	env, err := experiments.NewEnvParallel(*seed, *parallel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "environment ready in %v\n\n", time.Since(start).Round(time.Millisecond))

	// Observability: one metrics collector and one trace collector for the
	// whole sweep, one auditor per simulation run (the monotonicity checks
	// track per-run clocks), all behind one observer per run. Labels are
	// derived from run inputs, so exports are identical at every -parallel
	// width.
	var collector *obs.Collector
	var auditMu sync.Mutex
	var auditors []*obs.InvariantAuditor
	if *metrics {
		collector = obs.NewCollector()
	}
	if plan != nil {
		// Filter per run: a sweep visits many cluster sizes, and crashes or
		// slowdowns aimed at machines a small run lacks must not reject it.
		env.Faults = func(kind, scheduler string, machines int, tasks []sched.Task) *fault.Plan {
			return plan.ForMachines(machines)
		}
		fmt.Fprintf(os.Stderr, "fault injection: %s (%d crashes, %d slowdowns, fail-prob %g, timeout %gs)\n",
			*faultPlan, len(plan.Crashes), len(plan.Slowdowns), plan.FailProb, plan.TaskTimeout)
	}
	var traces *obs.TraceCollector
	if *traceRuns {
		traces = obs.NewTraceCollector(*traceCap)
	}
	if *metrics || *audit || *traceRuns {
		env.Observe = func(kind, scheduler string, machines int, tasks []sched.Task) sim.Observer {
			label := obs.RunLabel(kind, scheduler, machines, tasks)
			var multi obs.Multi
			if collector != nil {
				multi = append(multi, collector.Observer(label))
			}
			if traces != nil {
				multi = append(multi, traces.Tracer(label, scheduler, machines))
			}
			if *audit {
				a := &obs.InvariantAuditor{Every: *auditN}
				auditMu.Lock()
				auditors = append(auditors, a)
				auditMu.Unlock()
				multi = append(multi, a)
			}
			return multi
		}
	}

	runner := experiments.Runner{Workers: *parallel}
	for _, oc := range runner.Run(env, suite) {
		if oc.Err != nil {
			log.Fatalf("%s: %v", oc.Name, oc.Err)
		}
		fmt.Println(oc.Result.String())
		if *csvDir != "" {
			if tab, ok := oc.Result.(experiments.Tabular); ok {
				path := filepath.Join(*csvDir, oc.Name+".csv")
				if err := experiments.SaveCSV(path, tab.Table()); err != nil {
					log.Fatalf("%s: writing %s: %v", oc.Name, path, err)
				}
				fmt.Fprintf(os.Stderr, "[%s CSV → %s]\n", oc.Name, path)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", oc.Name, oc.Elapsed.Round(time.Millisecond))
	}

	if collector != nil {
		jsonPath, csvPath, err := collector.Export(*metricDir, fmt.Sprintf("seed%d", *seed), false)
		if err != nil {
			log.Fatalf("exporting metrics: %v", err)
		}
		fmt.Fprintf(os.Stderr, "metrics: %d runs → %s, %s\n", collector.Len(), jsonPath, csvPath)
	}
	if traces != nil {
		path, err := traces.Export(*traceDir, fmt.Sprintf("seed%d", *seed))
		if err != nil {
			log.Fatalf("exporting traces: %v", err)
		}
		fmt.Fprintf(os.Stderr, "traces: %d runs → %s (inspect with tracontrace -in %s)\n", traces.Len(), path, path)
		if n := traces.Collisions(); n > 0 {
			fmt.Fprintf(os.Stderr, "traces: WARNING: %d run-label collisions; the export is complete but not worker-count-deterministic\n", n)
		}
	}
	if *audit {
		var total int64
		for _, a := range auditors {
			total += a.Total()
		}
		if total > 0 {
			for _, a := range auditors {
				if a.Total() > 0 {
					fmt.Fprintln(os.Stderr, a.Summary())
				}
			}
			log.Fatalf("audit: %d invariant violations across %d simulation runs", total, len(auditors))
		}
		fmt.Fprintf(os.Stderr, "audit: %d simulation runs, 0 invariant violations\n", len(auditors))
	}

	fmt.Fprintf(os.Stderr, "all done in %v\n", time.Since(start).Round(time.Millisecond))
}
