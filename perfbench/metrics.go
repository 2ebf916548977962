package main

// metricSpec names one reported metric and its unit. The lists below
// are the benchmark's contract with BENCHMARK.json; the tests compare
// them.
type metricSpec struct {
	name string
	unit string
}

// endToEnd is printed by --trace 0 runs, every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"ok_frac", "fraction"},
	{"max_rss_mb", "MB"},
	{"tuple_bytes", "B"},
}

// perLayer is printed by --trace 1 runs, every workload; a layer the
// workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"client.self_us", "us"},
	{"client.router_self_us", "us"},
	{"wire.stream_us", "us"},
	{"wire.admit_us", "us"},
	{"wire.frames_out_per_stmt", "count"},
	{"os.syscalls_per_op", "count"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cpu_frac", "fraction"},
	{"engine.exec_us.point_read", "us"},
	{"engine.exec_us.update", "us"},
	{"engine.exec_us.insert", "us"},
	{"engine.exec_us.begin", "us"},
	{"engine.exec_us.commit", "us"},
	{"engine.inproc_point_read_us", "us"},
	{"sql.parse_us", "us"},
	{"engine.parse_cache_hit_frac", "fraction"},
	{"plan.build_us", "us"},
	{"engine.plan_cache_hit_frac", "fraction"},
	{"engine.rows_scanned_per_row_out", "count"},
	{"engine.label_denied_frac", "fraction"},
	{"label.flows_ns", "ns"},
	{"wire.rows_bytes_per_row", "B"},
	{"distplan.split_us", "us"},
	{"distplan.shard_ms", "ms"},
	{"distplan.gateway_self_ms", "ms"},
	{"client.fanout_width_p50", "count"},
	{"client.shard_errors_per_op", "count"},
	{"wal.fsync_p50_us", "us"},
	{"wal.fsyncs_per_txn", "count"},
	{"wal.group_batch_mean", "count"},
	{"wal.appends_per_txn", "count"},
	{"wal.bytes_per_txn", "B"},
	{"pager.heap_bytes_per_row", "B"},
	{"txn.retry_frac", "fraction"},
	{"txn.aborts_per_op", "count"},
	{"label.ifc_overhead_pct", "%"},
	{"label.ifc_cost_us_per_op", "us"},
	{"obs.trace_overhead_pct", "%"},
	{"failed_frac", "fraction"},
	{"fail.serialization_retried_per_op", "count"},
	{"fail.canceled_per_op", "count"},
	{"fail.other_per_op", "count"},
	{"write_p50_ms", "ms"},
	{"agg_p50_ms", "ms"},
	{"topk_p50_ms", "ms"},
	{"first_row_p50_ms", "ms"},
	{"defect.stale_cancel_frac", "fraction"},
	{"lat_p99_ms", "ms"},
}

// layerMetrics derives the per-layer counts and ratios from an
// untraced window's tally and the registry, runtime and /proc deltas
// around it.
func layerMetrics(m metrics, t *tally, d delta) {
	ops := float64(t.attempted)
	commits := d.counter("ifdb_txn_commits_total")
	m["wire.frames_out_per_stmt"] = ratio(d.counter("ifdb_server_frames_out_total"), float64(t.stmts))
	m["os.syscalls_per_op"] = ratio(d.syscalls, ops)
	m["go.allocs_per_op"] = ratio(d.mallocs, ops)
	m["go.alloc_bytes_per_op"] = ratio(d.alloc, ops)
	m["go.gc_cpu_frac"] = ratio(d.gcCPU, d.totalCPU)

	parses, parseHits := d.counter("ifdb_engine_parses_total"), d.counter("ifdb_engine_parse_cache_hits_total")
	m["engine.parse_cache_hit_frac"] = ratio(parseHits, parses+parseHits)
	plans, planHits := d.counter("ifdb_engine_plans_total"), d.counter("ifdb_engine_plan_cache_hits_total")
	m["engine.plan_cache_hit_frac"] = ratio(planHits, plans+planHits)
	scanned := d.counter("ifdb_engine_rows_scanned_total")
	m["engine.rows_scanned_per_row_out"] = ratio(scanned, float64(t.rowsOut))
	m["engine.label_denied_frac"] = ratio(d.counter("ifdb_ifc_label_denials_total"), scanned)
	m["wire.rows_bytes_per_row"] = ratio(d.counter("ifdb_wire_rows_bytes_total"), float64(t.rowsOut))

	m["client.fanout_width_p50"] = d.histQuantile("ifdb_router_fanout_width", 0.5)
	m["client.shard_errors_per_op"] = ratio(d.counter("ifdb_router_shard_errors_total"), ops)

	m["wal.fsync_p50_us"] = 1e6 * d.histQuantile("ifdb_wal_fsync_seconds", 0.5)
	m["wal.fsyncs_per_txn"] = ratio(d.counter("ifdb_wal_fsync_total"), commits)
	m["wal.group_batch_mean"] = ratio(d.histSum("ifdb_wal_group_commit_batch"), d.histCount("ifdb_wal_group_commit_batch"))
	m["wal.appends_per_txn"] = ratio(d.counter("ifdb_wal_appends_total"), commits)
	m["wal.bytes_per_txn"] = ratio(float64(t.walBytes), commits)

	m["txn.retry_frac"] = ratio(float64(t.retried), float64(t.attempted+t.retried))
	m["txn.aborts_per_op"] = ratio(d.counter("ifdb_txn_aborts_total"), ops)

	m["failed_frac"] = ratio(float64(t.failed()), ops)
	m["fail.serialization_retried_per_op"] = ratio(float64(t.retried), ops)
	m["fail.canceled_per_op"] = ratio(float64(t.canceled), ops)
	m["fail.other_per_op"] = ratio(float64(t.other), ops)
}
