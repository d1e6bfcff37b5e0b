# Tier-1 gate plus the race pass that guards the parallel evaluation
# engine. `make ci` is what a checkin must keep green.

GO ?= go

.PHONY: ci vet build test race audit paper trace obs-smoke chaos crash-smoke fuzz-smoke dst dst-long cover bench-test bench clean

ci: vet build test race audit paper trace obs-smoke chaos crash-smoke fuzz-smoke dst cover bench-test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./... -count=1

# Short mode keeps the race pass under ~2 minutes: the determinism golden
# test drops to one seed and the heavyweight dynamic sweeps shrink their
# dimensions (see testing.Short() guards in the _test files).
race:
	$(GO) test -short -race ./... -count=1

# Self-audit: replay a compact slice of the evaluation with the invariant
# auditor attached to every simulation (pool⟺machine consistency, work
# conservation, time/energy monotonicity, FIFO-fair pops). Any violation
# exits non-zero. Takes a couple of seconds.
audit:
	$(GO) run ./cmd/traconbench -quick -hours 0.5 -only table1,fig3,fig8,fig9 -audit -parallel 4 > /dev/null

# Paper gate: regenerate every exhibit at paper scale (spot check
# included) into a temp dir. Each CSV must match results/ byte for byte
# and stdout must match results_full.txt, timing lines aside. Prints the
# time to reproduce. About 7 s on 2 cores.
paper:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/traconbench -spotcheck -csv $$tmp/csv > $$tmp/stdout 2> $$tmp/stderr && \
	test $$(ls $$tmp/csv | wc -l) -eq $$(ls results/*.csv | wc -l) && \
	for f in results/*.csv; do cmp $$f $$tmp/csv/$$(basename $$f) || exit 1; done && \
	grep -v 'done in' results_full.txt > $$tmp/want && \
	grep -v 'done in' $$tmp/stdout > $$tmp/got && \
	diff $$tmp/want $$tmp/got && \
	grep -E 'environment ready|all done in' $$tmp/stderr

# Tracing gate: the tracontrace CLI must build, the trace exports must be
# byte-identical across worker counts (and leave results untouched), and
# the observed exports (trace, metrics, audit) must match their seed-1
# digests.
trace:
	$(GO) build -o /dev/null ./cmd/tracontrace
	$(GO) test ./internal/experiments -run 'TestTraceExportDeterministicAcrossWorkers|TestObservedExportsGolden' -short -count=1
	$(GO) test ./internal/obs ./internal/simobs -run 'TestTrace|TestTracer|TestPerfetto|TestRuns' -count=1

# Observability smoke test: boot tracond with JSON logs, drive a scraped
# traconload burst, then assert Prometheus exposition shape, serve-trace
# span balance and Perfetto conversion, X-Request-Id echo, and /v1/slo.
obs-smoke:
	bash scripts/obs_smoke.sh

# Chaos gate: the simulator-side fault-injection suite (crash recovery,
# retry/backoff/timeout, golden determinism under faults), the serve-side
# machine lifecycle tests, and the end-to-end drill — tracond under
# traconload -chaos with random kills and revivals; no task may fail.
chaos:
	$(GO) test ./internal/fault ./internal/sim -run 'TestChaos|TestTimeout|TestRetry|TestBackoff|TestSlowdown|TestEmptyPlan|Fault' -count=1
	$(GO) test ./internal/serve -run 'TestMachineLifecycle|TestDrainCordons|TestKillRequeues|TestAdmissionShedding|TestHTTPMachineOps' -count=1
	$(GO) test ./internal/experiments -run 'TestChaosExperiments|TestEmptyFaultFactory' -short -count=1
	bash scripts/chaos_smoke.sh

# Crash gate: tracond journaling under -fsync always takes a SIGKILL
# mid-burst, restarts on the same data dir, and every admitted task must
# reach a terminal state exactly once (no losses, no duplicate IDs).
crash-smoke:
	bash scripts/crash_smoke.sh

# Ten seconds each of coverage-guided fuzzing against the placer's machine
# lifecycle (submit/complete/kill/revive/drain/undrain interleavings) and
# the WAL reader's torn/corrupt-frame discrimination; the checked-in
# corpora under internal/{serve,durable}/testdata seed them.
fuzz-smoke:
	$(GO) test ./internal/serve -fuzz=FuzzPlacerBacklog -fuzztime=10s -run '^$$'
	$(GO) test ./internal/durable -fuzz=FuzzWALReader -fuzztime=10s -run '^$$'

# Deterministic simulation gate: 50 seeded scenarios drive the whole
# daemon (placer, coalescer, admission, swaps, journal, simulated crashes)
# on a virtual clock and an in-memory disk, with the full property suite
# checked after every op; plus the byte-identical-trail contract, the
# sim-engine equivalence oracle, and the injected-violation meta-test
# (catch → ddmin shrink → seed repro). A failure prints a one-line
# `go test ./internal/dst -run 'TestDST$$' -dst-seed=N` reproduction.
dst:
	$(GO) test ./internal/dst -count=1 -dst-scenarios=50

# Nightly-depth sweep: an order of magnitude more seeds and longer op
# streams. Not part of `make ci`.
dst-long:
	$(GO) test ./internal/dst -count=1 -dst-scenarios=500 -dst-ops=400 -timeout 30m

# Per-package statement coverage with a ratchet: any package falling more
# than a point below the floor recorded in COVERAGE.ratchet fails the
# gate. After genuine coverage gains, raise the floors with
# `bash scripts/cover_ratchet.sh -update` (it never lowers one).
cover:
	bash scripts/cover_ratchet.sh

# The repository benchmark's self-tests (bench/ is its own module, so
# `go test ./...` does not see them; about a second) and one iteration of
# the serve-layer, scheduler, simulator and bring-up Go benchmarks, so they
# cannot rot. Their deterministic halves, allocations per submit → complete
# cycle, per Schedule call, per simulated task and per profiling sweep, are
# tier-1 tests: TestPlacerSubmitCompleteAllocs in internal/serve,
# TestScheduleAllocs in internal/sched, TestRunAllocsPerTask in internal/sim
# and TestProfileAllAllocs in internal/model.
bench-test:
	$(GO) test -C bench . -count=1
	$(GO) test ./internal/serve -run '^$$' -bench BenchmarkPlacerSubmitComplete -benchtime 1x
	$(GO) test ./internal/sched -run '^$$' -bench 'BenchmarkSchedule|BenchmarkFreePoolCycle' -benchtime 1x
	$(GO) test ./internal/sim -run '^$$' -bench BenchmarkEngineRun -benchtime 1x
	$(GO) test ./internal/model -run '^$$' -bench 'BenchmarkProfileAll|BenchmarkTrainLibrary' -benchtime 1x

# Regenerate the paper exhibits through the benchmark harness.
bench:
	$(GO) test -bench=. -benchmem -count=1 ./internal/experiments

clean:
	$(GO) clean ./...
