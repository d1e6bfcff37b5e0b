package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// metricSpec is one metric's entry in BENCHMARK.json. Per-layer metrics
// have no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// readBenchmarkSpec loads BENCHMARK.json from the checkout root: the one
// place the regression bounds are written down.
func readBenchmarkSpec(root string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// Verdicts of one (workload, metric) row.
const (
	verdictRegressed  = "regressed"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved (spread wider than bound)"
)

// runSpread is how far apart a side's own runs are, as a share of their
// median: the interquartile distance from four runs up, the full range for
// two or three, nothing for one.
func runSpread(v []float64) float64 {
	m := median(v)
	if m == 0 || len(v) < 2 {
		return 0
	}
	if len(v) >= 4 {
		return spread(v)
	}
	s := sortedCopy(v)
	return math.Abs((s[len(s)-1] - s[0]) / m)
}

// judge compares the medians of two sides of one metric. worse is how much
// worse the new median is as a share of the old (negative when better). A
// side whose own runs disagree by more than the bound cannot show the
// metric unchanged; a loss larger than both the bound and that spread is a
// regression all the same.
func judge(old, new []float64, better string, bound float64) (verdict string, worse float64) {
	mo, mn := median(old), median(new)
	if mo != 0 {
		worse = (mn - mo) / math.Abs(mo)
		if better == "higher" {
			worse = -worse
		}
	}
	sp := math.Max(runSpread(old), runSpread(new))
	switch {
	case worse > bound && worse > sp:
		return verdictRegressed, worse
	case sp > bound:
		return verdictUnresolved, worse
	}
	return verdictUnchanged, worse
}

type cell struct{ workload, metric string }

// collect groups a file's values by (workload, metric), and counts the runs
// that failed an op or a check.
func collect(f *resultFile) (map[cell][]float64, int) {
	vals := map[cell][]float64{}
	bad := 0
	for _, run := range f.Runs {
		if !run.correct() {
			bad++
		}
		for _, r := range run.Rows {
			k := cell{r.Workload, r.Metric}
			vals[k] = append(vals[k], r.Value)
		}
	}
	return vals, bad
}

// compareFiles prints one row per bounded metric and workload present in
// both files and returns the number of regressions. A run of the new file
// with a failed op or check is a regression whatever its timings say.
func compareFiles(w io.Writer, spec *benchmarkSpec, old, new *resultFile) int {
	ov, _ := collect(old)
	nv, bad := collect(new)
	regressions := bad
	if bad > 0 {
		fmt.Fprintf(w, "%d run(s) of the new file failed an op or an output check: regressed\n", bad)
	}
	fmt.Fprintf(w, "%-15s %-24s %-6s %12s %12s %8s %6s  %s\n", "workload", "metric", "unit", "old", "new", "worse", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			k := cell{wl.Name, m.Name}
			o, n := ov[k], nv[k]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v, worse := judge(o, n, m.Better, m.Bound)
			if v == verdictRegressed {
				regressions++
			}
			fmt.Fprintf(w, "%-15s %-24s %-6s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n",
				k.workload, k.metric, m.Unit, median(o), median(n), 100*worse, 100*m.Bound, v)
		}
		// The advisory tails: shown, never judged.
		for _, call := range []string{"submit", "complete", "read"} {
			k := cell{wl.Name, call + "_p99_ms"}
			o, n := ov[k], nv[k]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			_, worse := judge(o, n, "lower", 1)
			fmt.Fprintf(w, "%-15s %-24s %-6s %12.6g %12.6g %+7.1f%% %6s  advisory\n",
				k.workload, k.metric, "ms", median(o), median(n), 100*worse, "-")
		}
	}
	return regressions
}

func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare old.json new.json")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	spec, err := readBenchmarkSpec(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	old, err := readResults(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	new, err := readResults(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if n := compareFiles(stdout, spec, old, new); n > 0 {
		fmt.Fprintf(stdout, "%d regression(s)\n", n)
		return 1
	}
	return 0
}

// aaMain runs the whole untraced suite `sets` times on the same code and
// seed and checks that the sets agree: for every end-to-end metric on every
// workload, (max − min) / median over the sets must stay within the
// metric's bound. It is how the bounds were frozen (README.md has the
// five-set table) and how a later change shows the benchmark is still
// steady on its host.
func aaMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench aa", flag.ContinueOnError)
	var (
		sets    = fs.Int("sets", 2, "how many times to run the suite")
		seed    = fs.Int64("seed", 1, "seed of every set")
		seconds = fs.Float64("seconds", 10, "run length of every workload")
		out     = fs.String("out", "", "also write all sets' results to this JSON file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sets < 2 {
		fmt.Fprintln(os.Stderr, "bench aa: need at least 2 sets")
		return 2
	}
	e, err := prepare()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	spec, err := readBenchmarkSpec(e.root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	var all resultFile
	for i := 0; i < *sets; i++ {
		for _, w := range workloads {
			res, err := runUntraced(e, w, *seed, *seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: set %d: %s: %v\n", i+1, w.name, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "bench aa: set %d/%d %s done\n", i+1, *sets, w.name)
			all.Runs = append(all.Runs, res)
		}
	}
	if *out != "" {
		if err := writeResults(*out, all.Runs); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if bad := reportAA(stdout, spec, &all); bad > 0 {
		fmt.Fprintf(stdout, "%d metric(s) disagree between sets by more than their bound, or a run failed\n", bad)
		return 1
	}
	return 0
}

// reportAA prints each bounded metric's range over the sets and returns how
// many are out of bound, plus the runs that failed.
func reportAA(w io.Writer, spec *benchmarkSpec, all *resultFile) int {
	vals, bad := collect(all)
	fmt.Fprintf(w, "%-15s %-24s %-6s %12s %8s %6s  %s\n", "workload", "metric", "unit", "median", "range", "bound", "values")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			v := vals[cell{wl.Name, m.Name}]
			if len(v) == 0 {
				continue
			}
			s := sortedCopy(v)
			rng := 0.0
			if med := median(v); med != 0 {
				rng = (s[len(s)-1] - s[0]) / math.Abs(med)
			}
			mark := ""
			if rng > m.Bound {
				mark = "  OUT OF BOUND"
				bad++
			}
			fmt.Fprintf(w, "%-15s %-24s %-6s %12.6g %7.1f%% %5.0f%%  %s%s\n",
				wl.Name, m.Name, m.Unit, median(v), 100*rng, 100*m.Bound, formatValues(v), mark)
		}
	}
	return bad
}

func formatValues(v []float64) string {
	out := ""
	for i, x := range v {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.4g", x)
	}
	return out
}
