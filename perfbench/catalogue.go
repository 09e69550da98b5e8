package main

// The metric catalogue: every name the benchmark prints, with its unit
// and direction, and for each per-layer metric the end-to-end metric
// (and workload) an optimisation of that layer should move. The
// catalogue and BENCHMARK.json must agree; catalogue_test.go checks it.

// e2eMetric is one end-to-end metric: what a user of the service sees.
type e2eMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// layerMetric is one per-layer metric, printed by the traced run.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	// Moves names the end-to-end metric this layer should move, and
	// Workload the workload on which it should show.
	Moves    []string
	Workload string
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p99_ms", "ms", "lower", 0.25},
	{"read_qps", "1/s", "higher", 0.25},
	{"refresh_p50_ms", "ms", "lower", 0.25},
	{"visible_p50_ms", "ms", "lower", 0.25},
	{"visible_p99_ms", "ms", "lower", 0.25},
	{"ingest_p50_ms", "ms", "lower", 0.25},
	{"ingest_p99_ms", "ms", "lower", 0.25},
}

// opsFailedFrac is the eleventh end-to-end metric: failed, refused,
// timed-out or wrong operations over attempted ones. A healthy run
// reads exactly 0, which a relative bound cannot gate, so it is printed
// in the report and carried by the result line's "attempted" and
// "failed" fields instead of the metrics map.
const opsFailedFrac = "ops_failed_frac"

const (
	wHot   = "hot-read"
	wCold  = "cold-analytics"
	wChurn = "write-churn"
	wAll   = "all"
)

var perLayer = []layerMetric{
	{"egclient.decode_us", "us", "lower", []string{"query_p50_ms", "read_qps"}, wHot},
	{"egclient.allocs_per_query", "count", "lower", []string{"query_p50_ms", "read_qps"}, wHot},
	{"http.rtt_us", "us", "lower", []string{"query_p50_ms"}, wHot},
	{"wire.rtt_us", "us", "lower", []string{"query_p50_ms"}, wHot},
	{"http.bytes_per_query", "bytes", "lower", []string{"query_p50_ms"}, wHot},
	{"wire.bytes_per_query", "bytes", "lower", []string{"query_p50_ms"}, wHot},
	{"server.serve_us", "us", "lower", []string{"query_p50_ms"}, wHot},
	{"server.encode_us", "us", "lower", []string{"query_p50_ms"}, wHot},
	{"server.unattributed_us", "us", "lower", []string{"query_p50_ms"}, wHot},
	{"qcache.lookup_us", "us", "lower", []string{"query_p50_ms"}, wHot},
	{"qcache.hit_rate", "frac", "higher", []string{"query_p99_ms"}, wChurn},
	{"qcache.carried_per_epoch", "count", "higher", []string{"query_p99_ms"}, wChurn},
	{"core.bfs_us", "us", "lower", []string{"query_p50_ms"}, wHot},
	{"core.bfs_reached", "count", "lower", []string{"query_p50_ms"}, wHot},
	{"components.sizes_ms", "ms", "lower", []string{"refresh_p50_ms", "query_p99_ms"}, wCold},
	{"metrics.efficiency_ms", "ms", "lower", []string{"refresh_p50_ms", "query_p99_ms"}, wCold},
	{"influence.greedy_ms", "ms", "lower", []string{"refresh_p50_ms", "query_p99_ms"}, wCold},
	{"rank.katz_ms", "ms", "lower", []string{"refresh_p50_ms", "query_p99_ms"}, wCold},
	{"components.strong_ms", "ms", "lower", []string{"refresh_p50_ms", "query_p99_ms"}, wCold},
	{"metrics.closeness_us", "us", "lower", []string{"refresh_p50_ms", "query_p99_ms"}, wCold},
	{"compute.active_roots", "count", "lower", []string{"refresh_p50_ms"}, wCold},
	{"compute.flat_arcs", "count", "lower", []string{"refresh_p50_ms"}, wCold},
	{"components.sizes_ns_per_root", "ns", "lower", []string{"refresh_p50_ms"}, wCold},
	{"ingest.wal_append_us", "us", "lower", []string{"visible_p50_ms", "ingest_p50_ms"}, wChurn},
	{"egraph.patch_ms", "ms", "lower", []string{"visible_p50_ms"}, wChurn},
	{"egraph.csr_build_ms", "ms", "lower", []string{"visible_p50_ms"}, wChurn},
	{"inc.apply_ms", "ms", "lower", []string{"visible_p50_ms"}, wChurn},
	{"ingest.publish_ms", "ms", "lower", []string{"visible_p50_ms"}, wChurn},
	{"feed.lag_ms", "ms", "lower", []string{"visible_p50_ms"}, wChurn},
	{"ingest.events_per_epoch", "count", "higher", []string{"visible_p50_ms"}, wChurn},
	{"egio.checkpoint_ms", "ms", "lower", []string{"visible_p99_ms"}, wChurn},
	{"ingest.recover_ms", "ms", "lower", []string{"setup_s"}, wChurn},
	{"ingest.throttled_frac", "frac", "lower", []string{"ops_failed_frac"}, wChurn},
	{"runtime.gc_cpu_frac", "frac", "lower", []string{"query_p99_ms", "peak_rss_mb"}, wAll},
	{"runtime.heap_peak_mb", "MB", "lower", []string{"query_p99_ms", "peak_rss_mb"}, wAll},
	{"bench.sched_late_ms", "ms", "lower", []string{"query_p99_ms"}, wAll},
	{"bench.trace_overhead_frac", "frac", "lower", []string{"query_p50_ms"}, wAll},
}
