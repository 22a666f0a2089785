package main

import "fmt"

// metricDef declares one metric the harness emits. The same names, units
// and directions are listed in /BENCHMARK.json; TestCatalogueMatchesBenchmarkJSON
// fails when the two disagree in either direction.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// workloadDef declares one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"spawn", "empty fork-join trees and cutoff-free fib: runtime, sched and deque do all the work, kernels none"},
	{"kernels", "quicksort, matmul, heat2d, kdtree at full size: kernel bodies dominate, so a scheduler-only change must not move it"},
	{"serve_closed", "closed-loop clients with tiny jobs and an empty queue: submit, dispatch, root claim, park/wake and reap are a large share of each job"},
	{"serve_open", "open-loop Poisson arrivals into a 2-pool SLO cluster up to 120% load: deep queues, Next() scans, shedding, affinity routing"},
	{"sim", "30 simulator configurations per pass, single-threaded and deterministic: host speed of the second scheduler copy"},
}

// endToEnd is what a user of the system sees, defined for every workload:
// what ADWS costs relative to the SL-WS baseline on the same inputs, in wall
// time and in CPU time, the two measured interleaved in one run. The
// baseline doubles as the reference that cancels the host's drift; see
// README.md, "Steadiness".
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"adws_ws_ratio", "ratio", "lower", 0.20},
	{"adws_ws_cpu_ratio", "ratio", "lower", 0.20},
}

// ungated are the absolute figures of a plain run: printed and kept in
// result files, but not end-to-end metrics, because on the shared 2-core
// sandbox they drift by 15-30 % over minutes and so do not repeat within a
// tenth between two sets of runs of the same code (the issue's rule for
// demoting a candidate). One operation (op) is one root computation handed
// to the system: one Pool.Run, one submitted job, one Engine.Run.
var ungated = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_us", Unit: "us", Better: "lower"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
}

var (
	kernelNames = []string{"quicksort", "matmul", "heat2d", "kdtree"}
	simModes    = []string{"sl-ws", "sl-adws", "ml-ws", "ml-adws", "sb"}
	simMachines = []string{"twolevel16", "threelevel64"}
	simBenches  = []string{"quicksort", "matmul", "heat2d"}
	routerNames = []string{"round-robin", "least-loaded", "affinity"}
)

// perLayer lists every per-layer metric, layer = module name. The traced
// run of any workload emits all of them (see trace.go: the layer battery).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// internal/runtime, through adws.Pool.Run and runtime.Pool.SubmitRoot.
	add("ns", "lower",
		"runtime.ns_per_task.adws.w1", "runtime.ns_per_task.adws.wn",
		"runtime.ns_per_task.ws.w1", "runtime.ns_per_task.ws.wn",
		"runtime.fib_ns_per_task.adws.w1", "runtime.fib_ns_per_task.ws.w1")
	add("ratio", "lower", "runtime.adws_ws_ratio_w1", "runtime.adws_ws_ratio_wn", "runtime.adws_ws_cpu_ratio_wn")
	add("count", "lower", "runtime.allocs_per_task.adws", "runtime.allocs_per_task.ws")
	add("B", "lower", "runtime.bytes_per_task.adws")
	add("count", "lower", "runtime.steals", "runtime.steal_attempts", "runtime.migrations",
		"runtime.parks", "runtime.wakes")
	add("ratio", "higher", "runtime.steal_success_ratio", "runtime.busy_share")
	add("us", "lower", "runtime.root_claim_us_p50", "runtime.root_claim_us_p99", "runtime.root_done_us_p50")
	// internal/sched and internal/deque, called directly.
	add("ns", "lower", "sched.queueset_push_pop_ns", "sched.queueset_steal_ns",
		"sched.splitter_next_ns", "sched.steal_range_ns",
		"deque.push_pop_ns", "deque.steal_ns")
	// internal/kernels on adws.Pool.Run.
	for _, k := range kernelNames {
		add("ms", "lower", "kernels."+k+".parallel_ms", "kernels."+k+".serial_ms")
		add("ratio", "higher", "kernels."+k+".speedup_wn")
		add("count", "lower", "kernels."+k+".tasks")
		add("ratio", "lower", "kernels."+k+".sched_share")
	}
	// internal/server through adws.Pool.Submit (closed loop) and the
	// cluster (open loop).
	add("1/s", "higher", "server.jobs_per_s")
	add("us", "lower", "server.e2e_p50_us", "server.e2e_p99_us",
		"server.submit_call_us_p50", "server.submit_call_us_p99",
		"server.dispatch_wait_us_p50", "server.dispatch_wait_us_p99",
		"server.queue_wait_us_p50", "server.queue_wait_us_p99",
		"server.service_us_p50", "server.notify_us_p50",
		"server.slo_next_us.q64", "server.slo_next_us.q1024")
	add("us", "lower", "server.interactive_p50_us")
	add("ms", "lower", "server.interactive_p99_ms", "server.batch_p95_ms")
	add("ratio", "higher", "server.slo_goodput_ratio", "server.jain")
	add("1/s", "higher", "server.max_rate_ok")
	add("ratio", "lower", "server.shed_ratio")
	add("count", "lower", "server.expired", "server.queue_depth_max")
	// internal/cluster.
	add("us", "lower", "cluster.submit_call_us_p50")
	for _, r := range routerNames {
		add("ns", "lower", "cluster.route_ns."+r)
	}
	add("ratio", "higher", "cluster.warm_ratio")
	add("count", "lower", "cluster.spill", "cluster.moved")
	// internal/metrics, internal/obs, internal/trace: the cost of watching.
	add("ns", "lower", "metrics.hist_record_ns", "metrics.counter_inc_ns")
	add("ms", "lower", "metrics.render_ms")
	add("ns", "lower", "obs.wants_ns", "obs.record_ns")
	add("ms", "lower", "obs.dump_ms")
	add("ratio", "lower", "obs.recorder_overhead_ratio")
	add("ns", "lower", "trace.record_ns")
	add("ms", "lower", "trace.summarize_ms")
	add("ratio", "lower", "trace.overhead_ratio")
	// internal/sim.
	add("1/s", "higher", "sim.tasks_per_s")
	for _, m := range simModes {
		add("ns", "lower", "sim.host_ns_per_task."+m)
	}
	add("ns", "lower", "sim.hier_access_ns", "sim.cacheset_touch_ns")
	for _, m := range simMachines {
		for _, b := range simBenches {
			// Exact counts: a host-speed change must not move them at all.
			add("ns", "lower", fmt.Sprintf("sim.sim_time_ns.%s.%s.sl-adws", m, b))
			add("count", "lower", fmt.Sprintf("sim.steals.%s.%s.sl-adws", m, b))
		}
	}
	// The harness itself: validity of the run, not the system.
	add("us", "lower", "bench.gen_late_us_p99")
	add("ratio", "lower", "bench.trace_overhead_ratio", "bench.failed_ratio")
	add("ratio", "higher", "bench.span_closure_ratio")
	add("MB", "lower", "bench.heap_mb")
	return out
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
