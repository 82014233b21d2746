package main

// Workload names, as BENCHMARK.json lists them.
const (
	wlManyrank   = "sweep-manyrank"
	wlLargeblock = "sweep-largeblock"
	wlService    = "service-mixed"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{wlManyrank, wlLargeblock, wlService}

// metricDef declares one metric: its name, unit and direction. Per-layer
// metrics also name the layer they measure and the end-to-end metric
// and workload they are expected to move (Moves/On), the map README.md
// documents.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Layer  string
	Moves  string
	On     string
}

// endToEnd are the metrics a user of matscale sees, printed by every
// untraced run of every workload. Bounds are the share of the parent's
// median by which a change may worsen the metric before it is
// rejected; README.md ("Steadiness") sets them against the run-to-run
// spread measured across seeds.
var endToEnd = []metricDef{
	{Name: "cells_per_s", Unit: "cells/s", Better: "higher", Bound: 0.25},
	{Name: "hostmul_gflops", Unit: "GFLOP/s", Better: "higher", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.25},
	{Name: "success_rate", Unit: "fraction", Better: "higher", Bound: 0.01},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's metrics, one group per repository
// layer. Every traced run prints all of them; a layer the workload
// does not exercise reports 0 (README.md lists which).
var perLayer = []metricDef{
	{Name: "matrix.gflops.b16", Unit: "GFLOP/s", Better: "higher", Layer: "matrix", Moves: "cells_per_s", On: wlManyrank},
	{Name: "matrix.gflops.b64", Unit: "GFLOP/s", Better: "higher", Layer: "matrix", Moves: "cells_per_s", On: wlLargeblock},
	{Name: "matrix.gflops.b128", Unit: "GFLOP/s", Better: "higher", Layer: "matrix", Moves: "cells_per_s", On: wlLargeblock},
	{Name: "matrix.gflops.b192", Unit: "GFLOP/s", Better: "higher", Layer: "matrix", Moves: "cells_per_s", On: wlLargeblock},
	{Name: "matrix.hostmul_gflops.w1", Unit: "GFLOP/s", Better: "higher", Layer: "matrix", Moves: "hostmul_gflops", On: wlLargeblock},
	{Name: "matrix.hostmul_gflops.wmax", Unit: "GFLOP/s", Better: "higher", Layer: "matrix", Moves: "hostmul_gflops", On: wlLargeblock},
	{Name: "matrix.kernel_flops", Unit: "count", Better: "lower", Layer: "matrix", Moves: "cells_per_s", On: wlLargeblock},
	{Name: "matrix.kernel_share", Unit: "fraction", Better: "lower", Layer: "matrix", Moves: "cells_per_s", On: wlLargeblock},

	{Name: "simulator.ns_per_msg.p64", Unit: "ns", Better: "lower", Layer: "simulator", Moves: "cells_per_s", On: wlManyrank},
	{Name: "simulator.ns_per_msg.p1024", Unit: "ns", Better: "lower", Layer: "simulator", Moves: "cells_per_s", On: wlManyrank},
	{Name: "simulator.allocs_per_msg", Unit: "allocs", Better: "lower", Layer: "simulator", Moves: "peak_rss_mb", On: wlManyrank},

	{Name: "des.ns_per_msg.p64", Unit: "ns", Better: "lower", Layer: "des", Moves: "cells_per_s", On: wlManyrank},
	{Name: "des.ns_per_msg.p1024", Unit: "ns", Better: "lower", Layer: "des", Moves: "cells_per_s", On: wlManyrank},
	{Name: "des.allocs_per_msg", Unit: "allocs", Better: "lower", Layer: "des", Moves: "cells_per_s", On: wlManyrank},
	{Name: "des.ns_per_switch", Unit: "ns", Better: "lower", Layer: "des", Moves: "cells_per_s", On: wlManyrank},

	{Name: "collective.broadcast_us", Unit: "us", Better: "lower", Layer: "collective", Moves: "cells_per_s", On: wlManyrank},
	{Name: "collective.allgather_us", Unit: "us", Better: "lower", Layer: "collective", Moves: "cells_per_s", On: wlManyrank},
	{Name: "collective.reduce_us", Unit: "us", Better: "lower", Layer: "collective", Moves: "cells_per_s", On: wlManyrank},

	{Name: "core.simple.host_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "cells_per_s", On: "sweep-*"},
	{Name: "core.cannon.host_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "cells_per_s", On: "all"},
	{Name: "core.fox.host_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "cells_per_s", On: "sweep-*"},
	{Name: "core.foxpipe.host_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "cells_per_s", On: wlManyrank},
	{Name: "core.berntsen.host_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "cells_per_s", On: "sweep-*"},
	{Name: "core.dns.host_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "cells_per_s", On: wlManyrank},
	{Name: "core.gk.host_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "cells_per_s", On: "all"},
	{Name: "core.gkimproved.host_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "cells_per_s", On: wlManyrank},
	{Name: "core.host_ns_per_msg", Unit: "ns", Better: "lower", Layer: "core", Moves: "cells_per_s", On: wlManyrank},
	{Name: "core.host_ns_per_flop", Unit: "ns", Better: "lower", Layer: "core", Moves: "cells_per_s", On: wlLargeblock},
	{Name: "core.events_host_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "cells_per_s", On: wlManyrank},
	{Name: "core.sim_msgs", Unit: "count", Better: "lower", Layer: "core", Moves: "cells_per_s", On: "all"},
	{Name: "core.sim_words", Unit: "count", Better: "lower", Layer: "core", Moves: "cells_per_s", On: "all"},

	{Name: "sweep.serial_overhead_ms", Unit: "ms", Better: "lower", Layer: "sweep", Moves: "cells_per_s", On: "sweep-*"},
	{Name: "sweep.matgen_ms", Unit: "ms", Better: "lower", Layer: "sweep", Moves: "cells_per_s", On: "sweep-*"},
	{Name: "sweep.pool_efficiency", Unit: "fraction", Better: "higher", Layer: "sweep", Moves: "cells_per_s", On: "sweep-*"},
	{Name: "sweep.encode_ms", Unit: "ms", Better: "lower", Layer: "sweep", Moves: "loadgen.job_p50_ms", On: "all"},

	{Name: "server.submit_ms.p50", Unit: "ms", Better: "lower", Layer: "server", Moves: "loadgen.job_p50_ms", On: wlService},
	{Name: "server.submit_ms.p95", Unit: "ms", Better: "lower", Layer: "server", Moves: "loadgen.job_p95_ms", On: wlService},
	{Name: "server.queue_wait_ms.p50", Unit: "ms", Better: "lower", Layer: "server", Moves: "loadgen.job_p50_ms", On: wlService},
	{Name: "server.queue_wait_ms.p95", Unit: "ms", Better: "lower", Layer: "server", Moves: "loadgen.job_p95_ms", On: wlService},
	{Name: "server.run_ms.hit.p50", Unit: "ms", Better: "lower", Layer: "server", Moves: "loadgen.job_p50_ms", On: wlService},
	{Name: "server.run_ms.miss.p50", Unit: "ms", Better: "lower", Layer: "server", Moves: "loadgen.job_p50_ms", On: wlService},
	{Name: "server.fetch_ms.p50", Unit: "ms", Better: "lower", Layer: "server", Moves: "loadgen.job_p50_ms", On: wlService},
	{Name: "server.cache_hit_ratio", Unit: "fraction", Better: "higher", Layer: "server", Moves: "loadgen.job_p50_ms", On: wlService},
	{Name: "server.max_queued", Unit: "count", Better: "lower", Layer: "server", Moves: "jobs_per_s", On: wlService},
	{Name: "server.rejected", Unit: "count", Better: "lower", Layer: "server", Moves: "success_rate", On: wlService},

	{Name: "checkpoint.suspend_ms.p50", Unit: "ms", Better: "lower", Layer: "checkpoint", Moves: "loadgen.job_p95_ms", On: wlService},
	{Name: "checkpoint.resume_ms.p50", Unit: "ms", Better: "lower", Layer: "checkpoint", Moves: "loadgen.job_p95_ms", On: wlService},
	{Name: "checkpoint.bytes.p50", Unit: "bytes", Better: "lower", Layer: "checkpoint", Moves: "loadgen.job_p95_ms", On: wlService},
	{Name: "checkpoint.encode_us", Unit: "us", Better: "lower", Layer: "checkpoint", Moves: "loadgen.job_p95_ms", On: wlService},
	{Name: "checkpoint.decode_us", Unit: "us", Better: "lower", Layer: "checkpoint", Moves: "loadgen.job_p95_ms", On: wlService},

	{Name: "loadgen.job_p50_ms", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: "jobs_per_s", On: wlService},
	{Name: "loadgen.job_p95_ms", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: "jobs_per_s", On: wlService},
	{Name: "loadgen.lag_ms.p95", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: "loadgen.job_p95_ms", On: wlService},
	{Name: "loadgen.offered_jobs_per_s", Unit: "jobs/s", Better: "higher", Layer: "loadgen", Moves: "jobs_per_s", On: wlService},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower", Layer: "trace", Moves: "cells_per_s", On: "all"},

	{Name: "trace.self_ms.matrix", Unit: "ms", Better: "lower", Layer: "matrix", Moves: "hostmul_gflops", On: "all"},
	{Name: "trace.self_ms.simulator", Unit: "ms", Better: "lower", Layer: "simulator", Moves: "cells_per_s", On: wlManyrank},
	{Name: "trace.self_ms.des", Unit: "ms", Better: "lower", Layer: "des", Moves: "cells_per_s", On: wlManyrank},
	{Name: "trace.self_ms.collective", Unit: "ms", Better: "lower", Layer: "collective", Moves: "cells_per_s", On: wlManyrank},
	{Name: "trace.self_ms.core", Unit: "ms", Better: "lower", Layer: "core", Moves: "cells_per_s", On: "all"},
	{Name: "trace.self_ms.sweep", Unit: "ms", Better: "lower", Layer: "sweep", Moves: "cells_per_s", On: "all"},
	{Name: "trace.self_ms.server", Unit: "ms", Better: "lower", Layer: "server", Moves: "loadgen.job_p50_ms", On: wlService},
	{Name: "trace.self_ms.checkpoint", Unit: "ms", Better: "lower", Layer: "checkpoint", Moves: "loadgen.job_p95_ms", On: wlService},
}

// traceLayers are the layers spans are attributed to, in the order of
// the trace.self_ms metrics.
var traceLayers = []string{"matrix", "simulator", "des", "collective", "core", "sweep", "server", "checkpoint"}

// metricSet collects measured values by name for one run.
type metricSet map[string]float64

// output renders the values of defs in the result-line shape
// {"name": {"value": v, "unit": u}}. A def with no measured value is
// reported as 0, the documented "not exercised" value for per-layer
// metrics.
func (m metricSet) output(defs []metricDef) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		out[d.Name] = metricOut{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
