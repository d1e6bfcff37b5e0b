package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"
)

// loadKind is how a workload offers its tasks.
type loadKind int

const (
	closedSingle loadKind = iota // 2 clients, one submit→complete cycle at a time
	closedBatch                  // 2 clients, 12 batches of 8 outstanding each
	openLoop                     // Poisson schedule, latency from the due time
	simulated                    // in-process simulator, no daemon
)

// workload is one named traffic mix. The six names are fixed: BENCHMARK.json
// and later issues cite them.
type workload struct {
	name string
	why  string
	kind loadKind

	machines int
	policy   string
	queueLen int
	// fsync is "" for no journal, else the -fsync policy.
	fsync string
	// prefill tasks are submitted during set-up and stay placed.
	prefill int
	// reqID makes every submit carry a client X-Request-Id, which the
	// daemon treats as an idempotency key.
	reqID bool

	// perSecond is the task count (simulated hours for sim-fig11) that one
	// requested second of run buys. It is frozen from the reference host so
	// that `-seconds S` is a fixed op count, identical on every commit,
	// which takes ≈ S seconds at the seed commit.
	perSecond float64
	// rate is the open-loop arrival rate in tasks/s.
	rate float64
}

// perSecond is each workload's closed-loop rate on the reference host (2
// cores) in its slower half hours, rounded down, so a run's timed phase
// lasts about -seconds there and a little less when the host is quick.
// The issue sized its counts for 20-second runs on a slower host; the
// driver's contract caps a run at -seconds, so the counts are a rate times
// that, one common factor for all six.
var workloads = []workload{
	{
		name: "steady-8m", kind: closedSingle, machines: 8, policy: "mios",
		perSecond: 4500,
		why:       "8 machines, no journal: transport, serve.http and obs do the work, so the instrumentation tax shows here",
	},
	{
		name: "fleet-12k", kind: closedSingle, machines: 12500, policy: "mios", prefill: 12500,
		perSecond: 1500,
		why:       "12 500 machines half full: the O(machines) inventory scans in serve.placer and sched dominate, HTTP does little",
	},
	{
		name: "durable-always", kind: closedSingle, machines: 8, policy: "mios", fsync: "always", reqID: true,
		perSecond: 1150,
		why:       "fsync on every commit point under the placer lock: durable dominates; ends with SIGKILL, restart and replay",
	},
	{
		name: "mixed-batch", kind: closedBatch, machines: 64, policy: "mibs", queueLen: 8, fsync: "interval",
		perSecond: 4000,
		why:       "batches of 8 over a standing backlog with reads and scrapes: batch planning, queue drain, read path, group commit",
	},
	{
		name: "open-2k", kind: openLoop, machines: 8, policy: "mios",
		perSecond: 2000, rate: 2000,
		why: "Poisson arrivals at 2 000 tasks/s timed from the due instant: shows the queueing a closed loop hides",
	},
	{
		name: "sim-fig11", kind: simulated, machines: 1024, policy: "mibs", queueLen: 8,
		perSecond: 2.4,
		why:       "the paper's Fig 11 point in-process (MIBS8, 1 024 machines, 1 000 tasks/min): sim, sched and model only, no HTTP or disk",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	warmupTasks = 2000
	noiseSigma  = 0.05
	batchSize   = 8
	// batchesOutstanding per client: 2 × 12 × 8 = 192 tasks against 128
	// slots, so about 64 tasks are always queued.
	batchesOutstanding = 12
	// readEvery makes one task in four poll its placement before
	// completing, so the read path is timed on every serving workload.
	readEvery = 4
	// completeAfter is how long after its acknowledgement an open-loop
	// task's completion falls due; its read, if any, halfway. The issue
	// asked for 5 ms, but 2 000 tasks/s each holding a slot for 5 ms keep
	// 11 of the 16 slots busy on average and fill all 16 in every burst:
	// one task in eight was queued at submit, and the latency tail measured
	// slot exhaustion, which is not what the workload is for. At 2 ms about
	// 5 slots are busy and the tail is the queueing for the daemon itself.
	completeAfter = 2 * time.Millisecond
)

// taskCount turns the requested run length into the workload's fixed op
// count, rounded so both clients and whole batches divide it.
func (w workload) taskCount(seconds float64) int {
	n := int(math.Round(w.perSecond * seconds))
	unit := 2 * readEvery
	if w.kind == closedBatch {
		unit = 2 * batchSize
	}
	if n < unit {
		n = unit
	}
	return n / unit * unit
}

// simHours is sim-fig11's simulated horizon for the requested run length.
func (w workload) simHours(seconds float64) float64 {
	return math.Round(w.perSecond*seconds*100) / 100
}

// daemonArgs are the tracond flags of the workload. The daemon always
// trains with its own seed and model; the bench seed never reaches it.
func (w workload) daemonArgs(dir string) []string {
	args := []string{
		"-seed", "1", "-model", "NLM",
		"-machines", strconv.Itoa(w.machines),
		"-policy", w.policy,
	}
	if w.queueLen > 0 {
		args = append(args, "-queue-len", strconv.Itoa(w.queueLen))
	}
	if w.fsync != "" {
		args = append(args, "-data-dir", dir+"/data", "-fsync", w.fsync)
	}
	return args
}

// walMaxBytes sizes the WAL segment so that durable-always sees about three
// size-triggered compactions inside a run of any length (the issue's 4 MiB
// for 20 000 tasks, scaled with the count).
func walMaxBytes(tasks int) int64 {
	return int64(tasks) * (4 << 20) / 20000
}

// task is one generated unit of work: everything the daemon will see of it.
type task struct {
	app   int           // index into the daemon's sorted app list
	noise float64       // observed runtime = predicted × noise
	due   time.Duration // open loop: arrival offset from the phase start
	read  bool          // poll the placement before completing
}

// genTasks derives n tasks from the seed alone. Each property has its own
// stream, so changing one workload's use of, say, arrivals never shifts
// another property's draws.
func genTasks(seed int64, n, napps int, rate float64) []task {
	apps := rand.New(rand.NewSource(seed))
	noise := rand.New(rand.NewSource(seed + 1<<32))
	out := make([]task, n)
	for i := range out {
		out[i].app = apps.Intn(napps)
		f := 1 + noiseSigma*noise.NormFloat64()
		if f < 0.5 {
			f = 0.5
		}
		out[i].noise = f
		out[i].read = (i/clients)%readEvery == 0 // spread evenly over the clients
	}
	if rate > 0 {
		for i, d := range poissonSchedule(seed, n, rate) {
			out[i].due = d
		}
	}
	return out
}

// poissonSchedule returns n arrival offsets with exponential gaps of mean
// 1/rate seconds.
func poissonSchedule(seed int64, n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed + 2<<32))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}
