package main

// metricDef is one row of the ledger's metric table. BENCHMARK.json at the
// repository root carries the same names, units, directions and bounds in the
// driver's format; TestMetricTableMatchesBenchmarkJSON keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the reference median by which an end-to-end
	// metric may worsen before -compare calls it regressed.
	Bound float64
	// Exact marks simulated-clock metrics: for one seed they are
	// deterministic, so -compare demands equal-or-better between two sets
	// run with the same seed instead of applying Bound.
	Exact bool
}

// endToEnd lists the ten end-to-end metrics, reported under the same names
// on every workload. The sim_* rows are simulated-clock numbers (the paper's
// product); the rest are host-clock costs of producing them.
//
// The bounds of the sim_* rows absorb seed-to-seed variation only: between
// two runs of one seed they never move, and -compare checks exactly that.
var endToEnd = []metricDef{
	{Name: "wall_s_per_sim", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_txn_per_s", Unit: "txn/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_sim", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ok_op_share", Unit: "ratio", Better: "higher", Bound: 0.0001},
	{Name: "sim_instr_stall_per_txn", Unit: "instr", Better: "lower", Bound: 0.10, Exact: true},
	{Name: "sim_l1i_mpki", Unit: "misses/k-instr", Better: "lower", Bound: 0.20, Exact: true},
	{Name: "sim_p50_instr", Unit: "instr", Better: "lower", Bound: 0.15, Exact: true},
	{Name: "sim_p95_instr", Unit: "instr", Better: "lower", Bound: 0.25, Exact: true},
}

// perLayer lists the per-layer metrics of the traced run, named
// <module>.<metric>. They carry no bound. A metric of a layer the workload
// does not exercise reads 0 (search.* off search-mix, expt.* off
// figures-tpcb, shard/predict counts off the sharded machine).
var perLayer = []metricDef{
	// cache: replay of the captured fetch runs through single ICaches.
	{Name: "cache.fetch_ns_per_run", Unit: "ns"},
	{Name: "cache.fetch_dm_ns_per_run", Unit: "ns"},
	{Name: "cache.wordstats_fetch_ns_per_run", Unit: "ns"},
	{Name: "cache.lines_per_run", Unit: "count"},
	{Name: "cache.accesses", Unit: "count"},
	{Name: "cache.misses", Unit: "count", Better: "lower"},
	// trace: sink plumbing and the binary trace codec.
	{Name: "trace.tee_ns_per_run_per_sink", Unit: "ns"},
	{Name: "trace.encode_ns_per_run", Unit: "ns"},
	{Name: "trace.replay_ns_per_run", Unit: "ns"},
	{Name: "trace.bytes_per_run", Unit: "B"},
	{Name: "trace.runs_per_txn", Unit: "count"},
	{Name: "trace.words_per_run", Unit: "count", Better: "higher"},
	// tlb, mem.
	{Name: "tlb.fetch_ns_per_run", Unit: "ns"},
	{Name: "tlb.misses", Unit: "count"},
	{Name: "mem.fetchmiss_ns", Unit: "ns"},
	{Name: "mem.data_ns_per_ref", Unit: "ns"},
	{Name: "mem.l2_misses", Unit: "count"},
	// codegen: the emitter walking auto functions under the subject layout.
	{Name: "codegen.emit_ns_per_instr", Unit: "ns"},
	{Name: "codegen.instr_per_call", Unit: "count"},
	// appmodel, kernel: image construction.
	{Name: "appmodel.build_ms", Unit: "ms"},
	{Name: "kernel.build_ms", Unit: "ms"},
	{Name: "appmodel.image_words", Unit: "count"},
	// db: a standalone engine under probe.Nop.
	{Name: "db.btree_search_ns", Unit: "ns"},
	{Name: "db.btree_insert_ns", Unit: "ns"},
	{Name: "db.btree_scan_ns_per_key", Unit: "ns"},
	{Name: "db.heap_fetch_ns", Unit: "ns"},
	{Name: "db.heap_update_ns", Unit: "ns"},
	{Name: "db.fetch_fields_ns", Unit: "ns"},
	{Name: "db.update_fields_ns", Unit: "ns"},
	{Name: "db.lock_cycle_ns", Unit: "ns"},
	{Name: "db.commit_ns", Unit: "ns"},
	{Name: "db.prepare_commit_ns", Unit: "ns"},
	{Name: "db.lock_conflicts", Unit: "count"},
	{Name: "db.deadlocks", Unit: "count"},
	{Name: "db.log_flushes", Unit: "count"},
	{Name: "db.grouped_commits", Unit: "count"},
	{Name: "db.buf_misses", Unit: "count"},
	// machine: direct machine.New/Run/CheckInvariants at the subject config.
	{Name: "machine.new_ms", Unit: "ms"},
	{Name: "machine.run_ns_per_txn", Unit: "ns"},
	{Name: "machine.minstr_per_s", Unit: "Minstr/s", Better: "higher"},
	{Name: "machine.allocs_per_txn", Unit: "count"},
	{Name: "machine.alloc_bytes_per_txn", Unit: "B"},
	{Name: "machine.check_invariants_ms", Unit: "ms"},
	{Name: "machine.inline_l1i_share", Unit: "ratio"},
	{Name: "machine.sink_ns_per_run", Unit: "ns"},
	{Name: "machine.sim_p99_instr", Unit: "instr"},
	{Name: "machine.aborted", Unit: "count"},
	{Name: "machine.idle_instr_share", Unit: "ratio"},
	{Name: "machine.kernel_instr_share", Unit: "ratio"},
	{Name: "machine.log_blocked_instr_per_txn", Unit: "instr"},
	// shard, predict.
	{Name: "shard.commit2pc_ns", Unit: "ns"},
	{Name: "shard.route_ns", Unit: "ns"},
	{Name: "shard.cross_shard_txns", Unit: "count"},
	{Name: "predict.observe_ns", Unit: "ns"},
	{Name: "predict.predicted", Unit: "count"},
	{Name: "predict.mispredicted", Unit: "count"},
	{Name: "predict.useful_ratio", Unit: "ratio", Better: "higher"},
	// core: layout passes on the trained image.
	{Name: "core.pipeline_ms.all", Unit: "ms"},
	{Name: "core.pipeline_ms.ipchain", Unit: "ms"},
	{Name: "core.chain_ms", Unit: "ms"},
	{Name: "core.porder_ms", Unit: "ms"},
	{Name: "core.layout_words.all", Unit: "count"},
	// profile, pstore.
	{Name: "profile.train_ms", Unit: "ms"},
	{Name: "profile.pixie_overhead_share", Unit: "ratio"},
	{Name: "profile.blocks", Unit: "count"},
	{Name: "profile.edges", Unit: "count"},
	{Name: "pstore.cold_train_ms", Unit: "ms"},
	{Name: "pstore.warm_load_ms", Unit: "ms"},
	{Name: "pstore.entry_bytes", Unit: "B"},
	// expt (figures-tpcb only).
	{Name: "expt.measure_ms.base", Unit: "ms"},
	{Name: "expt.measure_ms.all", Unit: "ms"},
	{Name: "expt.measure_ms.fusion", Unit: "ms"},
	{Name: "expt.battery_share", Unit: "ratio"},
	{Name: "expt.measure_alloc_mb", Unit: "MB"},
	{Name: "expt.memo_hit_us", Unit: "us"},
	{Name: "expt.layout_ms.fusion", Unit: "ms"},
	{Name: "expt.batch_speedup", Unit: "ratio", Better: "higher"},
	// search (search-mix only).
	{Name: "search.gen1_ms", Unit: "ms"},
	{Name: "search.gen_ms_median", Unit: "ms"},
	{Name: "search.evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "search.requested", Unit: "count"},
	{Name: "search.unique_specs", Unit: "count"},
	{Name: "search.executed", Unit: "count"},
	{Name: "search.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "search.winner_fitness", Unit: "ratio"},
	// bench: the harness itself.
	{Name: "bench.trace_overhead_share", Unit: "ratio"},
	{Name: "bench.capture_runs", Unit: "count"},
	{Name: "bench.capture_mb", Unit: "MB"},
	{Name: "bench.span_self_cover", Unit: "ratio", Better: "higher"},
	{Name: "bench.failed_op_share", Unit: "ratio"},
}

func init() {
	// Every per-layer metric without an explicit direction is a cost or a
	// count of work: lower is better.
	for i := range perLayer {
		if perLayer[i].Better == "" {
			perLayer[i].Better = "lower"
		}
	}
}

// value is one reported metric. Timed metrics carry the spread of the
// repetitions they are the median of; counts and simulated-clock values
// carry N = 1.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func single(v float64, unit string) value {
	return value{Value: v, Unit: unit, Q1: v, Q3: v, Min: v, Max: v, N: 1}
}
