// Command bench is the repository's benchmark: six named workloads against
// the real tracond binary (and the in-process simulator), client-observed
// metrics, output checks, and a traced pass that splits a request's time
// over the layers. See README.md in this directory.
//
//	go run -C bench . [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-short]
//	go run -C bench . compare old.json new.json
//	go run -C bench . aa -sets N
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func main() {
	code := realMain(os.Args[1:], os.Stdout)
	runCleanups()
	os.Exit(code)
}

// shortMode is the 1/50-scale smoke: too few samples for a p99 to mean
// anything, so the sample-count check is waived.
var shortMode bool

func realMain(args []string, stdout io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout)
		case "aa":
			return aaMain(args[1:], stdout)
		case "wire":
			return wireMain(args[1:])
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload (default: all six)")
		seed    = fs.Int64("seed", 1, "seed for app draws, runtime noise and arrival schedules")
		seconds = fs.Float64("seconds", 10, "run length; fixes each workload's op count (see README)")
		trace   = fs.Int("trace", 0, "1: traced pass (per-layer metrics and stage budget) instead of the end-to-end run")
		out     = fs.String("out", "", "also write the flat results to this JSON file")
		short   = fs.Bool("short", false, "smoke run at 1/50 scale")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *short {
		shortMode = true
		*seconds /= 50
	}
	todo := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		todo = []workload{w}
	}
	e, err := prepare()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}

	var results []*result
	ok := true
	for _, w := range todo {
		var res *result
		if *trace == 1 {
			res, err = runTraced(e, w, *seed, *seconds)
		} else {
			res, err = runUntraced(e, w, *seed, *seconds)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		names := endToEnd
		if *trace == 1 {
			names = perLayer
		}
		if err := printResult(stdout, res, names); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		results = append(results, res)
		ok = ok && res.correct()
	}
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// prepare caps the generator at the host's cores, arranges for cleanup on a
// signal, and builds the program under test.
func prepare() (*env, error) {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	// Past one client per core the latencies would measure the generator's
	// own scheduling, so the bench refuses rather than report them.
	if clients > runtime.NumCPU() {
		return nil, fmt.Errorf("%d clients need %d cores, host has %d", clients, clients, runtime.NumCPU())
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()
	return newEnv()
}

func runUntraced(e *env, w workload, seed int64, seconds float64) (*result, error) {
	if w.kind == simulated {
		return runSim(e, w, seed, seconds)
	}
	return runServing(e, w, seed, seconds)
}

// contractLine is the one JSON object the driver reads from the last line
// of standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every number of a run by name with its unit and sample
// count, every failed check, the share of failed ops with both counts, and
// last the contract line carrying exactly the metrics in names.
func printResult(w io.Writer, res *result, names []metric) error {
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-15s %-34s %14.6g %-6s n=%d\n", r.Workload, r.Metric, r.Value, r.Unit, r.N)
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-15s %-34s %14.6g %-6s failed=%d attempted=%d\n", res.Workload, "failed_ops_share", share, "share", res.Failed, res.Attempted)
	for _, c := range res.Checks {
		fmt.Fprintf(w, "%-15s CHECK FAILED: %s\n", res.Workload, c)
	}
	line := contractLine{
		Correct:   res.correct(),
		Attempted: max(res.Attempted, 1),
		Failed:    res.Failed,
		Metrics:   map[string]contractMetric{},
	}
	for _, m := range names {
		found := false
		for _, r := range res.Rows {
			if r.Metric != m.name {
				continue
			}
			if r.Unit != m.unit {
				return fmt.Errorf("metric %s measured in %s, declared in %s", m.name, r.Unit, m.unit)
			}
			if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
				return fmt.Errorf("metric %s is %v", m.name, r.Value)
			}
			line.Metrics[m.name] = contractMetric{Value: r.Value, Unit: r.Unit}
			found = true
			break
		}
		if !found {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// resultFile is the flat schema `-out` writes and `compare` reads: one row
// per (workload, metric) per run, plus each run's op counts.
type resultFile struct {
	Runs []*result `json:"runs"`
}

func writeResults(path string, results []*result) error {
	b, err := json.MarshalIndent(resultFile{Runs: results}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
