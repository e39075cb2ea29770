package main

// metric declares one number the benchmark reports. BENCHMARK.json at
// the repository root lists the same names, units and directions; a test
// keeps the two in step.
type metric struct {
	name        string
	unit        string
	lowerBetter bool
}

// e2eMetrics are what a user of the system sees. Every workload reports
// every one of them, measured with tracing off, so the set holds only
// metrics that mean something on every workload. Throughput counts
// simulated accesses per host second on the simulation workloads (over
// each cell's fastest run) and completed client operations on
// serve-cluster. Latency is a median time to fresh simulation results:
// of the timed passes over the cells on the simulation workloads, of the
// cold singles (submit, follow over SSE, fetch) on serve-cluster.
// latency.samples counts the passes or jobs behind it; too few lie beyond
// any tail percentile for one to be an end-to-end metric.
// peak_rss_mb is a per-layer number: on serve-cluster it spread by up to
// a third across runs of one commit, wider than any bound a regression
// check could use.
var e2eMetrics = []metric{
	{"setup_s", "s", true},
	{"ops_per_s", "1/s", false},
	{"latency_ms_p50", "ms", true},
}

// hostLayers partitions sampled CPU time by the leaf frame's package
// (see layerOf); host.<layer>_ns_per_access reports each share per
// simulated access.
var hostLayers = []string{
	"sampler", "sim", "streamcache", "nuca", "l1cache", "noc", "memdev",
	"system", "policy", "adapt", "trace", "workloads", "serve", "runtime", "other",
}

// serveShares partitions sampled CPU time the way a serving operator
// reads it (see shareOf).
var serveShares = []string{"sim", "http", "json", "runtime", "other"}

// layerMetrics are the per-layer numbers of a traced run (-trace 1).
// Every workload reports all of them; a layer that does no work on a
// workload reads 0. Each one's comment names the end-to-end metric it
// should move.
var layerMetrics = func() []metric {
	ms := []metric{
		// Timed passes (tracing off) of the traced run.
		{"host_ns_per_access", "ns", true},  // -> ops_per_s
		{"latency.samples", "count", false}, // passes or jobs behind latency_ms_p50
		{"sim_makespan_us", "us", true},     // simulated; exact per seed
		{"sim_amat_ns", "ns", true},         // simulated; exact per seed
		{"error_rate", "ratio", true},       // failed / attempted ops
		{"tracing_overhead_pct", "%", true}, // traced pass vs timed median
		{"host.gc_cycles", "count", true},   // -> peak_rss_mb, ops_per_s
		{"peak_rss_mb", "MB", true},         // peak resident set of the process
		{"hit_job_ms_p50", "ms", true},      // -> ops_per_s
		{"batch_ms_p50", "ms", true},
		{"serve.hit_jobs", "count", false}, // samples behind hit_job_ms_p50
		{"serve.batches", "count", false},  // samples behind batch_ms_p50
		// Set-up -> setup_s.
		{"workloads.gen_ms", "ms", true},
		{"trace.record_ms", "ms", true},
		{"trace.decode_ns_per_access", "ns", true}, // -> ops_per_s
	}
	// CPU profile of the traced pass -> ops_per_s.
	for _, l := range hostLayers {
		ms = append(ms, metric{"host." + l + "_ns_per_access", "ns", true})
	}
	ms = append(ms, []metric{
		{"host.cpu_ns_per_access", "ns", true},
		{"host.cpu_pct", "%", false}, // process CPU over the pass's wall time
		{"host.policy_ms_per_epoch", "ms", true},
		{"host.adapt_ms_per_epoch", "ms", true},
		{"host.alloc_bytes_per_access", "B", true}, // -> peak_rss_mb
		{"system.epochs", "count", false},
		{"system.epoch_gap_ms_p50", "ms", true},
		{"parallel.pipeline_speedup", "x", false},
		// Simulated machine (deterministic) -> sim_amat_ns, sim_makespan_us.
		{"model.l1_hit_rate", "ratio", false},
		{"model.cache_hit_rate", "ratio", false},
		{"model.slb_hit_rate", "ratio", false},
		{"model.meta_hit_rate", "ratio", false},
		{"model.meta_ns_per_access", "ns", true},
		{"model.noc_ns_per_access", "ns", true},
		{"model.dram_ns_per_access", "ns", true},
		{"model.ext_ns_per_access", "ns", true},
		{"model.reconfig_drop_frac", "ratio", true},
		{"adapt.switches", "count", true},
		{"adapt.model_error_pct", "%", true},
		// Serving path of the traced window.
		{"client.submit_ms_p50", "ms", true},       // -> hit_job_ms_p50
		{"transport.result_ms_p50", "ms", true},    // -> hit_job_ms_p50
		{"cluster.forward_hop_ms_p50", "ms", true}, // -> hit_job_ms_p50
		{"cluster.forwarded_frac", "ratio", true},
		{"scheduler.queue_wait_ms_p50", "ms", true}, // -> latency_ms_p50 on serve-cluster
		{"scheduler.run_ms_p50", "ms", true},
		{"sse.done_lag_ms_p50", "ms", true},
		{"store.hit_ratio", "ratio", false}, // -> ops_per_s
		{"scheduler.sims_per_key", "ratio", true},
		{"simcache.key_us_p50", "us", true},
		{"transport.rejected", "count", true},
	}...)
	// The shares partition the samples: a larger simulation share means
	// less serving overhead, a larger share of anything else more.
	for _, s := range serveShares {
		ms = append(ms, metric{"serve.cpu_share." + s, "ratio", s != "sim"})
	}
	return ms
}()
