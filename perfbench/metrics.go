package main

// decl names one metric and the unit it is reported in. The lists below
// mirror BENCHMARK.json (a test keeps them in step).
type decl struct{ name, unit string }

// endToEnd is what a user of the system sees, printed by every untraced run.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"capacity_rps", "1/s"},
	{"p50_ms", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"max_rss_mb", "MB"},
}

// perLayer is the traced run's account, one group per layer. A layer the
// workload does not exercise reads 0.
var perLayer = []decl{
	// Cell setup.
	{"workload.build_ms", "ms"},
	{"emu.load_ms", "ms"},
	{"mem.pages", "count"},
	{"ooo.new_ms", "ms"},
	{"ooo.new_alloc_kb", "KiB"},
	{"inorder.new_ms", "ms"},
	{"go.gc_cpu_frac", "ratio"},
	// Cycle loop.
	{"ooo.warm_ms", "ms"},
	{"ooo.measure_ms", "ms"},
	{"ooo.skip_ms", "ms"},
	{"ooo.ns_per_cycle", "ns"},
	{"ooo.cycles", "count"},
	{"ooo.insts", "count"},
	{"inorder.run_ms", "ms"},
	{"inorder.ns_per_cycle", "ns"},
	// Attack.
	{"attack.program_ms", "ms"},
	{"attack.run_ms", "ms"},
	{"attack.cycles", "count"},
	// Harness and pool.
	{"harness.cell_ms", "ms"},
	{"harness.residual_ms", "ms"},
	{"par.idle_frac", "ratio"},
	{"par.max_cell_ms", "ms"},
	// Serving edge.
	{"http.rtt_ms", "ms"},
	{"serve.direct_ms", "ms"},
	{"http.overhead_ms", "ms"},
	{"serve.status_json_us", "us"},
	{"serve.result_bytes", "bytes"},
	{"serve.ram_hit_ratio", "ratio"},
	{"serve.tier_computed", "count"},
	{"gen.late_p99_ms", "ms"},
	// Scheduler and store.
	{"tenant.queued_mean", "count"},
	{"tenant.running_mean", "count"},
	{"tenant.wait_ms_est", "ms"},
	{"serve.sims", "count"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.puts", "count"},
	{"store.put_errors", "count"},
	{"store.bytes", "bytes"},
	// The tracing itself.
	{"trace.overhead_frac", "ratio"},
}
