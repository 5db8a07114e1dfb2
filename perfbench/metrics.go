package main

// metricDef names one reported metric and its unit. The tables below
// match BENCHMARK.json (TestMetricTablesMatchBenchmarkJSON keeps them in
// step); README.md defines each metric per workload.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what an untraced run reports, on every workload. Latency
// (p50_ms, p99_ms) is printed but not gated: on a virtual machine with
// stolen CPU time, sub-millisecond request latency moves by tens of
// percent between runs of the same code (see README.md). cpu_ms_per_op
// is the gated cost of an operation instead; stolen time is not in it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "allocs"},
	{"heap_mb", "MB"},
}

// perLayer is what a traced run reports. Each workload fills the layers
// it exercises and leaves the rest at 0.
var perLayer = []metricDef{
	// serve-mix, scraped from the server around the timed run.
	{"relcli.handler_ms", "ms"},
	{"relcli.wire_ms", "ms"},
	{"relcli.rejected", "count"},
	{"runtime.gc_per_kreq", "count"},
	{"reldash.window_len", "count"},
	{"loadgen.late_ms", "ms"},
	{"loadgen.backlog", "count"},
	{"serve.p50_ms", "ms"},
	{"serve.p99_ms", "ms"},
	// serve-mix, replayed in-process on the same documents.
	{"modelio.parse_us", "us"},
	{"modelio.solve_us", "us"},
	{"modelio.solve_nop_us", "us"},
	{"obs.tax_us", "us"},
	{"obs.iter_points", "count"},
	{"obs.store_put_us", "us"},
	{"reldash.window_record_us", "us"},
	{"modelio.encode_us", "us"},
	// solve-large, timed per document.
	{"modelio.parse_ms", "ms"},
	{"modelio.lint_ms", "ms"},
	{"relstruct.analyze_ms", "ms"},
	{"markov.build_ms", "ms"},
	{"linalg.csr_ms", "ms"},
	{"linalg.sor_ms", "ms"},
	{"linalg.sor_iters", "count"},
	{"linalg.gth_ms", "ms"},
	{"bdd.compile_ms", "ms"},
	{"bdd.nodes", "count"},
	{"markov.transient_ms", "ms"},
	{"markov.unif_terms", "count"},
	{"spn.generate_ms", "ms"},
	{"spn.markings", "count"},
	// sweep-durable.
	{"modelio.sample_solve_us", "us"},
	{"uncertainty.shard_ms", "ms"},
	{"uncertainty.fold_ms", "ms"},
	{"jobs.checkpoint_ms", "ms"},
	{"jobs.wal_bytes", "bytes"},
	{"jobs.durability_ms", "ms"},
	{"jobs.retries", "count"},
	// every workload: the traced run's end-to-end figure minus the
	// untraced one, measured back to back in the traced run.
	{"trace.overhead_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
}
