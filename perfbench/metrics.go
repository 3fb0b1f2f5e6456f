package main

// metricDef is one metric the benchmark reports. bound is the share of
// the parent's median by which an end-to-end metric may worsen before a
// change counts as a regression. target names the end-to-end metric and
// workload a per-layer metric is expected to move.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	target string
}

// Sizes are in MB of 10^6 bytes throughout.

// endToEnd are the metrics a user of the simulator sees, printed on every
// workload with tracing off. Every one is non-zero on every workload; the
// metrics that exist only on some workloads (speedup, serving latency,
// error rate) are in perLayer instead. So are wall_s and cpu_s: on a
// shared host their run-to-run spread exceeds any bound a regression
// gate could use (see README.md).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.1},
	{name: "mallocs_k", unit: "count", better: "lower", bound: 0.1},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "traffic_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "proto_mem_peak_mb", unit: "MB", better: "lower", bound: 0.2},
}

// modules are the layers of this repository, each a package under
// gosvm/internal. Host time is also charged to the Go garbage collector,
// "gc", and to "other" for samples outside any module.
var modules = []string{"sim", "paragon", "fault", "core", "mem", "vc", "apps", "serve", "stats"}

// Predictions shared by several per-layer metrics.
const (
	tgtGrid    = "wall_s,cpu_s on paper-grid; no change elsewhere"
	tgtScale   = "alloc_mb,mallocs_k,peak_rss_mb,cpu_s on sor-1024; little on serve-zipf"
	tgtKernel  = "wall_s on serve-zipf and sor-1024; no change on paper-grid"
	tgtFaults  = "wall_s on faults-mesh"
	tgtServe   = "wall_s on serve-zipf"
	tgtTail    = "sim_p99_ms.r40k on serve-zipf"
	tgtExact   = "traffic_mb,proto_mem_peak_mb; identical under simulator-only changes"
	tgtAnyWall = "wall_s,cpu_s on every workload"
)

// perLayer are the metrics of the traced run: host time and allocation
// per module, host time per protocol and per app, the tracing overhead,
// and the simulated counts read from the run statistics.
var perLayer = []metricDef{
	{name: "self_s.sim", unit: "s", better: "lower", target: tgtKernel},
	{name: "self_s.paragon", unit: "s", better: "lower", target: tgtFaults},
	{name: "self_s.fault", unit: "s", better: "lower", target: tgtFaults},
	{name: "self_s.core", unit: "s", better: "lower", target: tgtGrid},
	{name: "self_s.mem", unit: "s", better: "lower", target: tgtGrid},
	{name: "self_s.vc", unit: "s", better: "lower", target: tgtGrid},
	{name: "self_s.apps", unit: "s", better: "lower", target: tgtGrid},
	{name: "self_s.serve", unit: "s", better: "lower", target: tgtServe},
	{name: "self_s.stats", unit: "s", better: "lower", target: tgtServe},
	{name: "self_s.gc", unit: "s", better: "lower", target: tgtScale},
	{name: "self_s.other", unit: "s", better: "lower", target: tgtAnyWall},

	{name: "alloc_mb.sim", unit: "MB", better: "lower", target: tgtKernel},
	{name: "alloc_mb.paragon", unit: "MB", better: "lower", target: tgtFaults},
	{name: "alloc_mb.fault", unit: "MB", better: "lower", target: tgtFaults},
	{name: "alloc_mb.core", unit: "MB", better: "lower", target: tgtScale},
	{name: "alloc_mb.mem", unit: "MB", better: "lower", target: tgtGrid},
	{name: "alloc_mb.vc", unit: "MB", better: "lower", target: tgtScale},
	{name: "alloc_mb.apps", unit: "MB", better: "lower", target: tgtGrid},
	{name: "alloc_mb.serve", unit: "MB", better: "lower", target: tgtServe},
	{name: "alloc_mb.stats", unit: "MB", better: "lower", target: tgtServe},
	{name: "alloc_mb.other", unit: "MB", better: "lower", target: tgtAnyWall},

	{name: "run_s.lrc", unit: "s", better: "lower", target: tgtGrid},
	{name: "run_s.olrc", unit: "s", better: "lower", target: tgtGrid},
	{name: "run_s.hlrc", unit: "s", better: "lower", target: "wall_s on sor-1024 and paper-grid"},
	{name: "run_s.ohlrc", unit: "s", better: "lower", target: "wall_s on serve-zipf and faults-mesh"},
	{name: "run_s.lu", unit: "s", better: "lower", target: tgtGrid},
	{name: "run_s.sor", unit: "s", better: "lower", target: "wall_s on sor-1024 and paper-grid"},
	{name: "run_s.water-nsq", unit: "s", better: "lower", target: tgtGrid},
	{name: "run_s.water-sp", unit: "s", better: "lower", target: tgtGrid},
	{name: "run_s.raytrace", unit: "s", better: "lower", target: tgtGrid},
	{name: "run_s.kv-serve", unit: "s", better: "lower", target: tgtServe},
	{name: "trace_overhead_pct", unit: "%", better: "lower", target: "none: the cost of measuring the layers"},

	{name: "read_misses", unit: "count", better: "lower", target: tgtExact},
	{name: "write_faults", unit: "count", better: "lower", target: tgtExact},
	{name: "diffs_created", unit: "count", better: "lower", target: tgtExact},
	{name: "diffs_applied", unit: "count", better: "lower", target: tgtExact},
	{name: "pages_fetched", unit: "count", better: "lower", target: tgtExact},
	{name: "lock_acquires", unit: "count", better: "lower", target: tgtExact},
	{name: "lock_forwards", unit: "count", better: "lower", target: tgtTail},
	{name: "barriers", unit: "count", better: "lower", target: tgtExact},
	{name: "gcs", unit: "count", better: "lower", target: "proto_mem_peak_mb on paper-grid"},
	{name: "msgs", unit: "count", better: "lower", target: tgtExact},
	{name: "hotspot_skew", unit: "ratio", better: "lower", target: tgtTail},
	{name: "retries", unit: "count", better: "lower", target: tgtFaults},
	{name: "dups_suppressed", unit: "count", better: "lower", target: tgtFaults},
	{name: "msgs_dropped", unit: "count", better: "lower", target: tgtFaults},
	{name: "delivery_ratio", unit: "ratio", better: "higher", target: tgtFaults},
	{name: "pages_rehomed", unit: "count", better: "lower", target: tgtFaults},
	{name: "mgrs_rehomed", unit: "count", better: "lower", target: tgtFaults},
	{name: "locks_reclaimed", unit: "count", better: "lower", target: tgtFaults},
	{name: "mirror_mb", unit: "MB", better: "lower", target: tgtFaults},
	{name: "sim_share.compute", unit: "ratio", better: "higher", target: "sim_speedup_geomean"},
	{name: "sim_share.data", unit: "ratio", better: "lower", target: "sim_speedup_geomean"},
	{name: "sim_share.lock", unit: "ratio", better: "lower", target: "sim_speedup_geomean"},
	{name: "sim_share.barrier", unit: "ratio", better: "lower", target: "sim_speedup_geomean"},
	{name: "sim_share.protocol", unit: "ratio", better: "lower", target: "sim_speedup_geomean"},
	{name: "sim_share.gc", unit: "ratio", better: "lower", target: "sim_speedup_geomean"},
	{name: "seqlock_hit_ratio", unit: "ratio", better: "higher", target: tgtTail},
	{name: "seqlock_retries", unit: "count", better: "lower", target: tgtTail},
	{name: "max_util", unit: "ratio", better: "lower", target: tgtTail},

	// End-to-end results that cannot carry a regression bound: host time,
	// which swings with the load other tenants put on the host, and
	// results that exist only on some workloads and read zero elsewhere.
	{name: "wall_s", unit: "s", better: "lower", target: "end to end on every workload; compare on one host only"},
	{name: "cpu_s", unit: "s", better: "lower", target: "end to end on every workload; compare on one host only"},
	{name: "sim_speedup_geomean", unit: "x", better: "higher", target: "end to end on paper-grid, sor-1024, faults-mesh"},
	{name: "sim_p50_ms.r15k", unit: "ms", better: "lower", target: "end to end on serve-zipf"},
	{name: "sim_p99_ms.r15k", unit: "ms", better: "lower", target: "end to end on serve-zipf"},
	{name: "sim_p50_ms.r40k", unit: "ms", better: "lower", target: "end to end on serve-zipf"},
	{name: "sim_p99_ms.r40k", unit: "ms", better: "lower", target: "end to end on serve-zipf"},
	{name: "error_rate", unit: "fraction", better: "lower", target: "end to end on every workload"},
}
