package dst

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"tracon/internal/model"
	"tracon/internal/sim"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

var (
	dstSeed      = flag.Int64("dst-seed", 0, "run exactly one DST scenario with this seed (0 = seeded sweep)")
	dstOps       = flag.Int("dst-ops", 120, "ops per DST scenario")
	dstScenarios = flag.Int("dst-scenarios", 0, "scenarios in the sweep (0 = 50, or 8 with -short)")
	dstUpdate    = flag.Bool("dst-update-golden", false, "rewrite testdata/trail_sha256.golden from this run (a deliberate behaviour change only)")
)

// The trained library and the simulator's interference table are the
// expensive fixtures; both are built once per test binary over the same
// synthetic host, so the serve side and the sim side see the same world.
var (
	fixOnce sync.Once
	fixLib  *model.Library
	fixTbl  *sim.InterferenceTable
	fixErr  error
)

func fixtures(t testing.TB) (*model.Library, *sim.InterferenceTable) {
	t.Helper()
	fixOnce.Do(func() {
		host, err := xen.NewHost(xen.DefaultHost())
		if err != nil {
			fixErr = err
			return
		}
		tb := xen.NewTestbed(host, 3, 0.05, 1)
		var bgs []xen.AppSpec
		for _, w := range workload.ProfilingWorkloads(host.Config().Disk) {
			bgs = append(bgs, w.Spec)
		}
		var specs []xen.AppSpec
		for _, b := range workload.Benchmarks() {
			specs = append(specs, b.Spec)
		}
		if fixLib, err = model.BuildLibrary(tb, specs, bgs, model.NLM); err != nil {
			fixErr = err
			return
		}
		fixTbl, fixErr = sim.BuildInterferenceTable(host, specs)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixLib, fixTbl
}

func sweepSize() int {
	if *dstScenarios > 0 {
		return *dstScenarios
	}
	if testing.Short() {
		return 8
	}
	return 50
}

// TestDST is the seeded sweep: each seed derives a scenario shape and an
// op stream, runs the whole daemon on virtual time and a simulated disk,
// and checks the property suite after every op. A failure shrinks itself
// and prints a one-line repro.
func TestDST(t *testing.T) {
	lib, _ := fixtures(t)
	if *dstSeed != 0 {
		runSeed(t, lib, *dstSeed, *dstOps)
		return
	}
	for seed := int64(1); seed <= int64(sweepSize()); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSeed(t, lib, seed, *dstOps)
		})
	}
}

// runSeed executes one scenario; on failure it ddmin-shrinks the op
// stream and reports the seed repro plus the minimized stream.
func runSeed(t *testing.T, lib *model.Library, seed int64, nops int) {
	t.Helper()
	sc, ops := NewScenario(seed, nops)
	trail, err := sc.Execute(lib, ops)
	if err == nil {
		return
	}
	minimized := Shrink(ops, func(c []Op) bool {
		_, e := sc.Execute(lib, c)
		return e != nil
	})
	t.Errorf("scenario failed: %v\n"+
		"repro: go test ./internal/dst -run 'TestDST$' -dst-seed=%d -dst-ops=%d\n"+
		"minimized to %d of %d ops: %s\n"+
		"trail tail:\n%s",
		err, seed, nops, len(minimized), len(ops), FormatOps(minimized), trailTail(trail, 12))
}

func trailTail(trail []byte, lines int) []byte {
	all := bytes.Split(bytes.TrimRight(trail, "\n"), []byte("\n"))
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return bytes.Join(all, []byte("\n"))
}

// TestDSTTrailIsDeterministic pins the harness's core contract: the same
// seed produces a byte-identical execution trail. Everything the sweep
// proves rests on this — a nondeterministic harness can neither shrink
// nor reproduce.
func TestDSTTrailIsDeterministic(t *testing.T) {
	lib, _ := fixtures(t)
	for seed := int64(1); seed <= 3; seed++ {
		sc := Scenario{Seed: seed, Ops: *dstOps}
		first, err1 := sc.Run(lib)
		second, err2 := sc.Run(lib)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("seed %d: one run failed, the other did not: %v vs %v", seed, err1, err2)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("seed %d: trails differ between identical runs\nfirst:\n%s\nsecond:\n%s",
				seed, trailTail(first, 20), trailTail(second, 20))
		}
	}
}

// trailGolden holds the SHA-256 of each seed's execution trail at the fixed
// 120-op stream length, one "seed hash" line per seed.
const trailGolden = "testdata/trail_sha256.golden"

// TestDSTTrailGolden pins the daemon's observable behaviour across
// refactors: the trail records, after every op, the queue depth, free and
// available slots, the per-status census, the model generation and the
// journal's sequence number, so an event added, dropped, regrouped or
// reordered — or a different slot picked — changes the hash. The hashes
// were captured at commit 25846ea; regenerate them (-dst-update-golden)
// only for a change that is meant to alter behaviour.
func TestDSTTrailGolden(t *testing.T) {
	lib, _ := fixtures(t)
	var got bytes.Buffer
	for seed := int64(1); seed <= 50; seed++ {
		sc, ops := NewScenario(seed, 120)
		trail, err := sc.Execute(lib, ops)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Fprintf(&got, "%d %x\n", seed, sha256.Sum256(trail))
	}
	if *dstUpdate {
		if err := os.WriteFile(trailGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(trailGolden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("trail hash diverges from %s at line %d: got %q", trailGolden, i+1, gotLines[i])
		}
	}
}

// TestDSTInjectedViolationShrinksAndReproduces is the meta-test: with a
// deliberately wrong FIFO-requeue expectation injected into the checker,
// some seed must fail; the failure must shrink to a smaller stream that
// still fails, and re-running from the seed alone must reproduce the
// identical failure. This proves the catch → shrink → repro pipeline on a
// real violation rather than trusting it until a regression needs it.
func TestDSTInjectedViolationShrinksAndReproduces(t *testing.T) {
	lib, _ := fixtures(t)
	const nops = 120
	var failSeed int64
	var failErr error
	var failOps []Op
	var failSc Scenario
	for seed := int64(1); seed <= 100; seed++ {
		sc, ops := NewScenario(seed, nops)
		sc.InjectRequeueBug = true
		if _, err := sc.Execute(lib, ops); err != nil {
			failSeed, failErr, failOps, failSc = seed, err, ops, sc
			break
		}
	}
	if failSeed == 0 {
		t.Fatal("no seed in 1..100 tripped the injected FIFO-requeue violation — the harness is not exercising kill-under-backlog")
	}
	if !strings.Contains(failErr.Error(), "FIFO fairness") {
		t.Fatalf("injected violation surfaced as the wrong failure: %v", failErr)
	}

	minimized := Shrink(failOps, func(c []Op) bool {
		_, e := failSc.Execute(lib, c)
		return e != nil
	})
	if len(minimized) >= len(failOps) {
		t.Fatalf("shrinker made no progress: %d ops in, %d out", len(failOps), len(minimized))
	}
	if _, err := failSc.Execute(lib, minimized); err == nil {
		t.Fatal("minimized stream no longer fails")
	}
	t.Logf("injected violation: seed %d, %d ops shrunk to %d: %s",
		failSeed, len(failOps), len(minimized), FormatOps(minimized))

	// The printed one-line repro — seed alone — must reproduce the very
	// same failure, byte for byte.
	reproSc := Scenario{Seed: failSeed, Ops: nops, InjectRequeueBug: true}
	if _, err := reproSc.Run(lib); err == nil || err.Error() != failErr.Error() {
		t.Fatalf("seed repro diverged:\noriginal: %v\nrepro:    %v", failErr, err)
	}
}

// TestDSTOracle replays seeded arrival/completion schedules through both
// the discrete-event simulator and the serving placer and requires
// identical starts (in identical order for the online policies) and
// backlog depth at every synchronization point, under all four policies.
func TestDSTOracle(t *testing.T) {
	lib, tbl := fixtures(t)
	policies := []struct {
		name   string
		policy string
		q      int
	}{
		{"fifo", "fifo", 0}, {"mios", "mios", 0},
		{"mibs2", "mibs", 2}, {"mibs8", "mibs", 8},
		{"mix2", "mix", 2}, {"mix8", "mix", 8},
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, pc := range policies {
		for _, seed := range seeds {
			pc, seed := pc, seed
			t.Run(fmt.Sprintf("%s/seed=%d", pc.name, seed), func(t *testing.T) {
				if err := RunOracle(lib, tbl, pc.policy, pc.q, 3, 40, seed); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestShrinkIsOneMinimal exercises ddmin against a synthetic predicate
// (fails iff the stream still contains one kill after at least two
// submits) and requires the exact 3-op minimum back.
func TestShrinkIsOneMinimal(t *testing.T) {
	ops := []Op{
		{Kind: OpSubmit}, {Kind: OpAdvance}, {Kind: OpSubmit}, {Kind: OpDrain},
		{Kind: OpSubmit}, {Kind: OpKill}, {Kind: OpRevive}, {Kind: OpComplete},
	}
	fails := func(c []Op) bool {
		submits := 0
		for _, op := range c {
			switch op.Kind {
			case OpSubmit:
				submits++
			case OpKill:
				if submits >= 2 {
					return true
				}
			}
		}
		return false
	}
	got := Shrink(ops, fails)
	if len(got) != 3 {
		t.Fatalf("shrunk to %d ops (%s), want the 3-op minimum", len(got), FormatOps(got))
	}
	if got[0].Kind != OpSubmit || got[1].Kind != OpSubmit || got[2].Kind != OpKill {
		t.Fatalf("wrong minimum: %s", FormatOps(got))
	}
}
