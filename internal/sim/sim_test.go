package sim

import (
	"math"
	"sync"
	"testing"

	"tracon/internal/model"
	"tracon/internal/sched"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

var (
	tblOnce sync.Once
	tbl     *InterferenceTable
	tblTB   *xen.Testbed
)

// The table's read accessors below serve the tests only: the engine
// indexes the table's slices by app ordinal directly.

// pair returns the rate/iops/util index of app beside neighbour.
func (t *InterferenceTable) pair(app, neighbour string) int {
	return t.ords[app]*t.n + t.ords[neighbour]
}

// Apps returns the application names, sorted.
func (t *InterferenceTable) Apps() []string {
	return append([]string(nil), t.apps[1:]...)
}

// SoloRuntime returns the measured no-interference runtime of app.
func (t *InterferenceTable) SoloRuntime(app string) float64 { return t.soloRT[t.ords[app]] }

// SoloIOPS returns the measured no-interference throughput of app.
func (t *InterferenceTable) SoloIOPS(app string) float64 { return t.soloIO[t.ords[app]] }

// Ops returns the total I/O request count of one task of app.
func (t *InterferenceTable) Ops(app string) float64 { return t.ops[t.ords[app]] }

// Rate returns app's progress rate (solo-seconds per wall second, in
// (0, 1]) while co-located with neighbour ("" = running alone).
func (t *InterferenceTable) Rate(app, neighbour string) float64 {
	return t.rate[t.pair(app, neighbour)]
}

// Util returns the CPU utilization (guest vCPU plus attributable Dom0
// work) app drives while co-located with neighbour — the basis of the
// simulator's energy accounting.
func (t *InterferenceTable) Util(app, neighbour string) float64 {
	return t.util[t.pair(app, neighbour)]
}

// IOPS returns app's throughput while co-located with neighbour.
func (t *InterferenceTable) IOPS(app, neighbour string) float64 {
	return t.iops[t.pair(app, neighbour)]
}

func table(t testing.TB) *InterferenceTable {
	t.Helper()
	tblOnce.Do(func() {
		host, err := xen.NewHost(xen.DefaultHost())
		if err != nil {
			panic(err)
		}
		tblTB = xen.NewTestbed(host, 1, 0, 1)
		var specs []xen.AppSpec
		for _, b := range workload.Benchmarks() {
			specs = append(specs, b.Spec)
		}
		tbl, err = BuildInterferenceTable(host, specs)
		if err != nil {
			panic(err)
		}
	})
	return tbl
}

func oracle(t *testing.T) model.Predictor {
	t.Helper()
	table(t)
	var specs []xen.AppSpec
	for _, b := range workload.Benchmarks() {
		specs = append(specs, b.Spec)
	}
	return model.NewOracle(tblTB, specs)
}

func TestTableBasicInvariants(t *testing.T) {
	tb := table(t)
	if len(tb.Apps()) != 8 {
		t.Fatalf("apps = %v", tb.Apps())
	}
	for _, a := range tb.Apps() {
		if tb.SoloRuntime(a) <= 0 {
			t.Fatalf("%s solo runtime %v", a, tb.SoloRuntime(a))
		}
		if tb.Rate(a, "") != 1 {
			t.Fatalf("%s solo rate != 1", a)
		}
		for _, b := range tb.Apps() {
			r := tb.Rate(a, b)
			if r <= 0 || r > 1+1e-9 {
				t.Fatalf("rate(%s|%s) = %v out of (0,1]", a, b, r)
			}
			if io := tb.IOPS(a, b); io < 0 || io > tb.SoloIOPS(a)+1e-6 {
				t.Fatalf("iops(%s|%s) = %v exceeds solo %v", a, b, io, tb.SoloIOPS(a))
			}
		}
	}
}

// TestTableUnknownNames pins the lookups' answers for a name the table
// does not know and for "" (no neighbour): an unknown neighbour reads as
// running alone, and an unknown app is unslowed with zero work, throughput
// and utilization.
func TestTableUnknownNames(t *testing.T) {
	tb := table(t)
	if tb.Has("") || tb.Has("nope") || !tb.Has("video") {
		t.Fatal(`Has: want "" and "nope" unknown, "video" known`)
	}
	for _, a := range tb.Apps() {
		if tb.Rate(a, "nope") != 1 || tb.IOPS(a, "nope") != tb.SoloIOPS(a) || tb.IOPS(a, "") != tb.SoloIOPS(a) ||
			tb.Util(a, "nope") != tb.Util(a, "") || tb.Util(a, "") <= 0 {
			t.Fatalf("%s beside an unknown neighbour must read as running alone", a)
		}
		if tb.Rate("nope", a) != 1 || tb.Util("nope", a) != 0 || tb.IOPS("nope", a) != 0 {
			t.Fatalf("unknown app beside %s: rate %v, util %v, iops %v; want 1, 0, 0",
				a, tb.Rate("nope", a), tb.Util("nope", a), tb.IOPS("nope", a))
		}
	}
	if tb.SoloRuntime("nope") != 0 || tb.SoloIOPS("nope") != 0 || tb.Ops("nope") != 0 || tb.Rate("nope", "") != 1 {
		t.Fatal("an unknown app must have zero solo runtime, throughput and ops, and rate 1")
	}
}

func TestTableSelfInterferenceHurts(t *testing.T) {
	tb := table(t)
	// The I/O-heaviest app must suffer from a twin neighbour.
	if r := tb.Rate("video", "video"); r > 0.6 {
		t.Fatalf("video|video rate = %v, expected heavy slowdown", r)
	}
	// And a compute-heavy app barely hurts an I/O app compared to that.
	if tb.Rate("video", "blastp") <= tb.Rate("video", "video") {
		t.Fatal("blastp neighbour should be gentler than video neighbour")
	}
}

func taskList(apps ...string) []sched.Task {
	out := make([]sched.Task, len(apps))
	for i, a := range apps {
		out[i] = sched.Task{ID: int64(i), App: a}
	}
	return out
}

func TestSingleTaskRunsAtSoloRuntime(t *testing.T) {
	tb := table(t)
	eng, err := NewEngine(Config{Machines: 1, Scheduler: sched.FIFO{}, Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(taskList("blastn"), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 1 {
		t.Fatalf("completed %d", len(res.Completed))
	}
	got := res.Completed[0].Runtime()
	want := tb.SoloRuntime("blastn")
	if math.Abs(got-want)/want > 1e-6 {
		t.Fatalf("runtime %v want %v", got, want)
	}
}

func TestTwoTasksOneMachineInterfere(t *testing.T) {
	tb := table(t)
	eng, err := NewEngine(Config{Machines: 1, Scheduler: sched.FIFO{}, Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(taskList("video", "video"), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 2 {
		t.Fatalf("completed %d", len(res.Completed))
	}
	solo := tb.SoloRuntime("video")
	for _, r := range res.Completed {
		if r.Runtime() < solo*1.5 {
			t.Fatalf("co-located video runtime %v should far exceed solo %v", r.Runtime(), solo)
		}
	}
}

func TestRemainingWorkRescaling(t *testing.T) {
	// One machine: a long I/O task plus a short CPU task; when the short
	// one finishes, the long one must speed back up. Its total runtime must
	// land strictly between solo and fully-paired runtimes.
	tb := table(t)
	eng, err := NewEngine(Config{Machines: 1, Scheduler: sched.FIFO{}, Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(taskList("video", "blastp"), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	var videoRec TaskRecord
	for _, r := range res.Completed {
		if r.Task.App == "video" {
			videoRec = r
		}
	}
	solo := tb.SoloRuntime("video")
	paired := solo / tb.Rate("video", "blastp")
	got := videoRec.Runtime()
	if got <= solo+1e-9 || got >= paired-1e-9 {
		// blastp runs much longer than video here, so video may stay paired
		// its whole life; then got ≈ paired. Accept equality with paired.
		if math.Abs(got-paired)/paired > 1e-6 {
			t.Fatalf("video runtime %v outside (solo %v, paired %v)", got, solo, paired)
		}
	}
}

func TestRescalingSpeedsUpSurvivor(t *testing.T) {
	// Pick the pair dynamically: long runs beside short; short finishes
	// first, so the survivor's runtime must land strictly between its solo
	// and fully-paired runtimes.
	tb := table(t)
	long, short := "video", "freqmine"
	if tb.SoloRuntime(long)/tb.Rate(long, short) <= tb.SoloRuntime(short)/tb.Rate(short, long) {
		t.Fatalf("test premise broken: %s no longer outlives %s", long, short)
	}
	eng, err := NewEngine(Config{Machines: 1, Scheduler: sched.FIFO{}, Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(taskList(long, short), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	var rec TaskRecord
	for _, r := range res.Completed {
		if r.Task.App == long {
			rec = r
		}
	}
	solo := tb.SoloRuntime(long)
	paired := solo / tb.Rate(long, short)
	if !(rec.Runtime() > solo+1e-6 && rec.Runtime() < paired-1e-6) {
		t.Fatalf("%s runtime %v not in (solo %v, paired %v)", long, rec.Runtime(), solo, paired)
	}
}

func TestFIFOFillsMachinesInOrder(t *testing.T) {
	tb := table(t)
	eng, err := NewEngine(Config{Machines: 2, Scheduler: sched.FIFO{}, Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(taskList("email", "email", "email"), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 3 {
		t.Fatalf("completed %d", len(res.Completed))
	}
	// First two tasks pair on machine 0; the third gets machine 1.
	placements := map[int64]int{}
	for _, r := range res.Completed {
		placements[r.Task.ID] = r.Machine
	}
	if placements[0] != 0 || placements[1] != 0 || placements[2] != 1 {
		t.Fatalf("FIFO placements: %v", placements)
	}
}

func TestMIOSBeatsFIFOOnAdversarialBatch(t *testing.T) {
	// Arrival order alternates heavy-I/O pairs; FIFO co-locates them, MIOS
	// must not.
	tb := table(t)
	pred := oracle(t)
	apps := []string{"video", "dedup", "blastp", "email", "video", "dedup", "blastp", "email"}

	run := func(s sched.Scheduler) float64 {
		eng, err := NewEngine(Config{Machines: 4, Scheduler: s, Table: tb})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(taskList(apps...), math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Completed) != len(apps) {
			t.Fatalf("%s completed %d of %d", s.Name(), len(res.Completed), len(apps))
		}
		return res.TotalRuntime
	}
	fifo := run(sched.FIFO{})
	mios := run(&sched.MIOS{Scorer: sched.NewScorer(pred, sched.MinRuntime)})
	if mios >= fifo {
		t.Fatalf("MIOS total runtime %v should beat FIFO %v", mios, fifo)
	}
}

func TestMIBSStaticBeatsFIFO(t *testing.T) {
	// Any single batch can land near a tie (or FIFO can luck into a good
	// pairing), so the claim is statistical: across seeds, MIBS-RT must
	// beat FIFO in aggregate and in most individual runs.
	tb := table(t)
	pred := oracle(t)
	run := func(s sched.Scheduler, tasks []sched.Task) *Results {
		eng, err := NewEngine(Config{Machines: 8, Scheduler: s, Table: tb})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(tasks, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var fifoRT, mibsRT, fifoIO, mibsIO float64
	wins := 0
	const seeds = 6
	for seed := int64(1); seed <= seeds; seed++ {
		m := workload.NewMixer(seed)
		batch := m.Batch(workload.MediumIO, 16) // 8 machines × 2 VMs
		tasks := make([]sched.Task, len(batch))
		for i, spec := range batch {
			tasks[i] = sched.Task{ID: int64(i), App: workload.BaseName(spec.Name)}
		}
		fifo := run(sched.FIFO{}, tasks)
		rt := run(&sched.MIBS{Scorer: sched.NewScorer(pred, sched.MinRuntime), QueueLen: len(tasks)}, tasks)
		io := run(&sched.MIBS{Scorer: sched.NewScorer(pred, sched.MaxIOPS), QueueLen: len(tasks)}, tasks)
		fifoRT += fifo.TotalRuntime
		mibsRT += rt.TotalRuntime
		fifoIO += fifo.TotalIOPS
		mibsIO += io.TotalIOPS
		if rt.TotalRuntime < fifo.TotalRuntime {
			wins++
		}
	}
	if mibsRT >= fifoRT {
		t.Fatalf("MIBS-RT aggregate runtime %v should beat FIFO %v", mibsRT, fifoRT)
	}
	if wins < seeds*2/3 {
		t.Fatalf("MIBS-RT won only %d of %d runs", wins, seeds)
	}
	if mibsIO <= fifoIO {
		t.Fatalf("MIBS-IO aggregate IOPS %v should beat FIFO %v", mibsIO, fifoIO)
	}
}

func TestDynamicPoissonCompletes(t *testing.T) {
	tb := table(t)
	mix := workload.NewMixer(7)
	rngTasks := mix.Batch(workload.MediumIO, 60)
	var tasks []sched.Task
	tm := 0.0
	for i, spec := range rngTasks {
		tm += 50
		tasks = append(tasks, sched.Task{ID: int64(i), App: workload.BaseName(spec.Name), Arrival: tm})
	}
	eng, err := NewEngine(Config{Machines: 16, Scheduler: sched.FIFO{}, Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	horizon := 3600.0 * 3
	res, err := eng.Run(tasks, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) == 0 {
		t.Fatal("nothing completed")
	}
	if len(res.Completed) > len(tasks) {
		t.Fatal("completed more than submitted")
	}
	for _, r := range res.Completed {
		if r.Finish > horizon+1e-9 {
			t.Fatalf("task finished after horizon: %v", r.Finish)
		}
		if r.Start < r.Task.Arrival-1e-9 {
			t.Fatalf("task started before arrival: %+v", r)
		}
		if r.Runtime() < tb.SoloRuntime(r.Task.App)-1e-6 {
			t.Fatalf("task ran faster than solo: %+v", r)
		}
	}
}

func TestBatchSchedulerFlushesPartialQueue(t *testing.T) {
	// A single task with a q=8 batch scheduler must still run (after the
	// flush timeout), not starve.
	tb := table(t)
	pred := oracle(t)
	s := &sched.MIBS{Scorer: sched.NewScorer(pred, sched.MinRuntime), QueueLen: 8}
	eng, err := NewEngine(Config{Machines: 2, Scheduler: s, Table: tb, FlushTimeout: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(taskList("email"), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 1 {
		t.Fatal("task starved in a partial batch")
	}
	if w := res.Completed[0].Wait(); w < 10-1e-9 || w > 60 {
		t.Fatalf("wait %v, expected ≈ flush timeout", w)
	}
}

func TestEngineDeterminism(t *testing.T) {
	tb := table(t)
	pred := oracle(t)
	mk := func() *Results {
		s := &sched.MIBS{Scorer: sched.NewScorer(pred, sched.MinRuntime), QueueLen: 4}
		eng, err := NewEngine(Config{Machines: 4, Scheduler: s, Table: tb})
		if err != nil {
			t.Fatal(err)
		}
		mix := workload.NewMixer(3)
		batch := mix.Batch(workload.HeavyIO, 12)
		var tasks []sched.Task
		for i, spec := range batch {
			tasks = append(tasks, sched.Task{ID: int64(i), App: workload.BaseName(spec.Name), Arrival: float64(i) * 20})
		}
		res, err := eng.Run(tasks, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.TotalRuntime != b.TotalRuntime || len(a.Completed) != len(b.Completed) {
		t.Fatal("simulation not deterministic")
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	tb := table(t)
	if _, err := NewEngine(Config{Machines: 0, Scheduler: sched.FIFO{}, Table: tb}); err == nil {
		t.Fatal("0 machines accepted")
	}
	if _, err := NewEngine(Config{Machines: 1, Table: tb}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	eng, err := NewEngine(Config{Machines: 1, Scheduler: sched.FIFO{}, Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(taskList("nope"), math.Inf(1)); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestNoOvercommit(t *testing.T) {
	// More tasks than VMs: at no completion time may a machine hold more
	// than two concurrent tasks; total completed must equal submitted.
	tb := table(t)
	eng, err := NewEngine(Config{Machines: 2, Scheduler: sched.FIFO{}, Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(taskList("email", "web", "email", "web", "email", "web", "email", "web"), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 8 {
		t.Fatalf("completed %d of 8", len(res.Completed))
	}
	// Overlap check per machine/slot: intervals on the same slot must not
	// overlap.
	type iv struct{ s, f float64 }
	slots := map[[2]int][]iv{}
	for _, r := range res.Completed {
		slots[[2]int{r.Machine, r.Slot}] = append(slots[[2]int{r.Machine, r.Slot}], iv{r.Start, r.Finish})
	}
	for key, list := range slots {
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				a, b := list[i], list[j]
				if a.s < b.f-1e-9 && b.s < a.f-1e-9 {
					t.Fatalf("slot %v double-booked: %+v %+v", key, a, b)
				}
			}
		}
	}
}

func TestEnergyAccounting(t *testing.T) {
	tb := table(t)
	// A cluster that never runs anything draws only the sleep power.
	idle, err := NewEngine(Config{Machines: 4, Scheduler: sched.FIFO{}, Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	res, err := idle.Run(nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	wantIdle := 4 * DefaultPower().OffW * 1000
	if math.Abs(res.EnergyJ-wantIdle) > 1 {
		t.Fatalf("idle cluster energy %v want %v", res.EnergyJ, wantIdle)
	}

	// Running work costs strictly more; the bound is peak power times the
	// horizon.
	busy, err := NewEngine(Config{Machines: 4, Scheduler: sched.FIFO{}, Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	resBusy, err := busy.Run(taskList("video", "blastn", "compile"), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if resBusy.EnergyJ <= wantIdle {
		t.Fatalf("busy cluster energy %v not above idle baseline", resBusy.EnergyJ)
	}
	maxPossible := 4 * DefaultPower().PeakW * resBusy.Horizon
	if resBusy.EnergyJ > maxPossible {
		t.Fatalf("energy %v exceeds physical bound %v", resBusy.EnergyJ, maxPossible)
	}
	if resBusy.EnergyJ <= 0 || resBusy.EnergyPerTaskKJ() <= 0 {
		t.Fatal("energy conversions broken")
	}
}

func TestEnergyBetterSchedulingUsesLess(t *testing.T) {
	// Same work, better pairing → fewer machine-seconds → less energy.
	tb := table(t)
	pred := oracle(t)
	apps := []string{"video", "dedup", "blastn", "email", "blastp", "web", "video", "email"}
	run := func(s sched.Scheduler) *Results {
		eng, err := NewEngine(Config{Machines: 4, Scheduler: s, Table: tb})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(taskList(apps...), math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fifo := run(sched.FIFO{})
	mibs := run(&sched.MIBS{Scorer: sched.NewScorer(pred, sched.MinRuntime), QueueLen: len(apps)})
	// Energy is integrated to each run's own horizon; compare per-task cost.
	if mibs.EnergyPerTaskKJ() >= fifo.EnergyPerTaskKJ()*1.05 {
		t.Fatalf("MIBS energy/task %v should not exceed FIFO %v",
			mibs.EnergyPerTaskKJ(), fifo.EnergyPerTaskKJ())
	}
}

func TestHorizonCutsOffRunningTasks(t *testing.T) {
	tb := table(t)
	eng, err := NewEngine(Config{Machines: 1, Scheduler: sched.FIFO{}, Table: tb})
	if err != nil {
		t.Fatal(err)
	}
	// blastn solo ≈ 800 s; a 100 s horizon completes nothing.
	res, err := eng.Run(taskList("blastn"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedCount != 0 {
		t.Fatalf("completed %d before the horizon", res.CompletedCount)
	}
	if res.Horizon != 100 {
		t.Fatalf("horizon %v", res.Horizon)
	}
}

// TestInfiniteHorizonEndsAtLastFinish: a fault-free run to completion ends
// at its last finish, and bills energy up to that instant and no further,
// on the storage study's shape (16 machines, static batches of 32) under
// FIFO and MIBS. A completion left stale by a repricing, popped after the
// last real one, once moved the clock and so Horizon and EnergyJ.
func TestInfiniteHorizonEndsAtLastFinish(t *testing.T) {
	pred := oracle(t)
	failed := 0
	for seed := int64(1); seed <= 40; seed++ {
		tasks := make([]sched.Task, 32)
		for i, spec := range workload.NewMixer(seed).Batch(workload.MediumIO, len(tasks)) {
			tasks[i] = sched.Task{ID: int64(i), App: workload.BaseName(spec.Name)}
		}
		for _, s := range []sched.Scheduler{
			sched.FIFO{},
			&sched.MIBS{Scorer: sched.NewScorer(pred, sched.MinRuntime), QueueLen: len(tasks)},
		} {
			run := func(horizon float64) *Results {
				eng, err := NewEngine(Config{Machines: 16, Scheduler: s, Table: table(t)})
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run(tasks, horizon)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			res := run(math.Inf(1))
			cut := run(res.LastFinish)
			if res.Horizon != res.LastFinish || res.EnergyJ != cut.EnergyJ {
				failed++
				t.Errorf("seed %d %s: horizon %v, last finish %v; energy %v J, %v J billed to the last finish",
					seed, s.Name(), res.Horizon, res.LastFinish, res.EnergyJ, cut.EnergyJ)
			}
		}
	}
	if failed > 0 {
		t.Logf("%d of 80 runs end after their last finish", failed)
	}
}

func TestDropRecordsKeepsAggregates(t *testing.T) {
	tb := table(t)
	run := func(drop bool) *Results {
		eng, err := NewEngine(Config{Machines: 2, Scheduler: sched.FIFO{}, Table: tb, DropRecords: drop})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(taskList("email", "web", "compile"), math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(false)
	without := run(true)
	if len(without.Completed) != 0 {
		t.Fatal("DropRecords kept records")
	}
	if without.CompletedCount != with.CompletedCount ||
		math.Abs(without.TotalRuntime-with.TotalRuntime) > 1e-9 ||
		math.Abs(without.TotalIOPS-with.TotalIOPS) > 1e-9 {
		t.Fatal("aggregates differ when records are dropped")
	}
}

func TestMeanHelpers(t *testing.T) {
	r := &Results{}
	if r.MeanRuntime() != 0 || r.MeanWait() != 0 || r.CompletedTasks() != 0 {
		t.Fatal("zero-value Results helpers broken")
	}
	r.CompletedCount = 4
	r.TotalRuntime = 100
	r.TotalWait = 20
	if r.MeanRuntime() != 25 || r.MeanWait() != 5 {
		t.Fatal("means wrong")
	}
}

func TestWorkConservationProperty(t *testing.T) {
	// Interference only slows tasks down: every completed task's runtime is
	// at least its solo runtime, so total runtime ≥ Σ solo runtimes.
	tb := table(t)
	mix := workload.NewMixer(17)
	batch := mix.Batch(workload.HeavyIO, 24)
	tasks := make([]sched.Task, len(batch))
	soloSum := 0.0
	for i, spec := range batch {
		app := workload.BaseName(spec.Name)
		tasks[i] = sched.Task{ID: int64(i), App: app}
		soloSum += tb.SoloRuntime(app)
	}
	for _, s := range []sched.Scheduler{
		sched.FIFO{},
		&sched.MIBS{Scorer: sched.NewScorer(oracle(t), sched.MinRuntime), QueueLen: len(tasks)},
	} {
		eng, err := NewEngine(Config{Machines: 6, Scheduler: s, Table: tb})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(tasks, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalRuntime < soloSum-1e-6 {
			t.Fatalf("%s: total runtime %v below solo sum %v", s.Name(), res.TotalRuntime, soloSum)
		}
	}
}
