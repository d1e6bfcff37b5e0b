package main

// The names here are the benchmark's public surface: BENCHMARK.json lists
// exactly these with these units (a self-test compares the two), printResult
// refuses a row whose unit differs, and later issues cite the names.

type metric struct{ name, unit string }

// endToEnd is what a user of the system sees, measured untraced against the
// real binary. Every workload reports every one (README.md says what the
// cells mean on sim-fig11, which has no request to time). The p99 of each
// call is measured and printed beside its median but is advisory, not in
// this list: between runs of unchanged code on the reference host it spreads
// by 15–40 % on open-2k, more than any bound the driver accepts.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"throughput_tasks_s", "1/s"},
	{"submit_p50_ms", "ms"},
	{"complete_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"daemon_cpu_ms_per_task", "ms"},
	{"peak_rss_mb", "MiB"},
	{"recovery_s", "s"},
}

// budgetLayers are the slices of one client-observed submit. On a serving
// workload transport … unexplained sum to 1; on sim-fig11 sim, sched and
// model do. The slices a workload does not have are 0.
var budgetLayers = []string{
	"transport", "serve.http", "serve.placer", "sched", "durable", "unexplained", "sim", "model",
}

// perLayer is what the traced pass reports: one or more numbers per package
// of the program under test, the generator's own health, and the budget.
var perLayer = func() []metric {
	ms := []metric{
		{"transport.self_us", "us"},

		{"serve.http.submit_self_us", "us"},
		{"serve.http.complete_self_us", "us"},
		{"serve.http.batch8_self_us", "us"},
		{"serve.http.get_self_us", "us"},
		{"serve.http.scrape_ms", "ms"},
		{"serve.http.submit_allocs", "allocs"},
		{"serve.http.errors", "count"},
		{"serve.http.obs_tax_share", "share"},

		{"serve.admission.acquire_ns", "ns"},

		{"serve.coalesce.submit_us", "us"},
		{"serve.coalesce.mean_batch", "tasks"},

		{"serve.placer.submit_us.m8", "us"},
		{"serve.placer.submit_us.m1000", "us"},
		{"serve.placer.submit_us.m12500", "us"},
		{"serve.placer.complete_us.m8", "us"},
		{"serve.placer.complete_us.m12500", "us"},
		{"serve.placer.batch8_us.m64", "us"},
		{"serve.placer.drain_complete_us.m64", "us"},
		{"serve.placer.get_ns", "ns"},
		{"serve.placer.snapshot_us.m12500", "us"},
		{"serve.placer.submit_allocs", "allocs"},

		{"serve.cache.hit_ns", "ns"},
		{"serve.cache.hit_ratio", "share"},

		{"serve.swap.observe_ns", "ns"},

		{"sched.schedule_us.fifo", "us"},
		{"sched.schedule_us.mios", "us"},
		{"sched.schedule_us.mibs8", "us"},
		{"sched.schedule_us.mix8", "us"},
		{"sched.pool.cycle_ns", "ns"},
		{"sched.calls_per_task", "calls"},

		{"model.predict_ns", "ns"},
		{"model.train_s", "s"},
		{"model.load_ms", "ms"},

		{"durable.append_us.always", "us"},
		{"durable.append_us.interval", "us"},
		{"durable.append_us.never", "us"},
		{"durable.encode_ns_event", "ns"},
		{"durable.encode_allocs_event", "allocs"},
		{"durable.fs.sync_us_p50", "us"},
		{"durable.fs.sync_us_p99", "us"},
		{"durable.fs.syncs_per_task", "syncs"},
		{"durable.fs.write_bytes_per_task", "bytes"},
		{"durable.snapshot_ms.m8_20k", "ms"},
		{"durable.snapshot_ms.m12500", "ms"},
		{"durable.recover_ms_per_kevent", "ms"},

		{"obs.counter_lookup_ns", "ns"},
		{"obs.labeled_counter_ns", "ns"},
		{"obs.histogram_observe_ns", "ns"},
		{"obs.tracer_append_ns", "ns"},
		{"obs.slo_record_ns", "ns"},
		{"obs.prometheus_write_us", "us"},
		{"obs.snapshot_us", "us"},

		{"sim.events_per_s", "1/s"},
		{"sim.self_share", "share"},
		{"sim.allocs_per_task", "allocs"},
		{"sim.table_s", "s"},

		{"loadgen.lateness_p99_ms", "ms"},
		{"loadgen.cpu_share", "share"},
		{"loadgen.over_5ms_share", "share"},
		{"loadgen.knee_rate_per_s", "1/s"},

		{"trace.overhead_share", "share"},
	}
	for _, l := range budgetLayers {
		ms = append(ms, metric{"budget." + l, "share"})
	}
	return ms
}()
