package main

// metricDef is one reported metric and its unit. The lists below are the
// benchmark's whole vocabulary; BENCHMARK.json declares the same names and
// units, and a self-test keeps the two equal.
type metricDef struct{ name, unit string }

// endToEnd is reported with --trace 0 on every workload. Each workload
// defines its own operation and work unit (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"throughput", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"alloc_bytes_per_unit", "B"},
}

// perLayer is reported with --trace 1 on every workload; a layer the
// workload does not drive reads 0. Times ending in _s are median self
// seconds per operation, from spans; counts are per operation and repeat
// exactly for a given seed.
var perLayer = []metricDef{
	// Workload-level figures measured on the untraced half of the run.
	{"sim_minstr_per_s", "Minstr/s"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"alloc_bytes_per_instr", "B"},
	{"cold_p50_ms", "ms"},
	{"cold_p90_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p99_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"sweep_s", "s"},
	{"error_rate", "ratio"},

	// Compilers.
	{"id.compile_s", "s"},
	{"vn.assemble_s", "s"},

	// core.
	{"core.build_s", "s"},
	{"core.run_s", "s"},
	{"core.run_s.matmul", "s"},
	{"core.run_s.fib", "s"},
	{"core.run_s.mergesort", "s"},
	{"core.run_s.sumloop", "s"},
	{"core.fired", "count"},
	{"core.matches", "count"},
	{"core.match_store_max", "count"},
	{"core.alu_util", "ratio"},
	{"core.local_bypass_ratio", "ratio"},
	{"core.ctx_allocated", "count"},
	{"core.ctx_peak", "count"},
	{"sim.cycles", "count"},

	// istructure.
	{"istructure.reads", "count"},
	{"istructure.writes", "count"},
	{"istructure.deferred_ratio", "ratio"},

	// network.
	{"network.self_s", "s"},
	{"network.deliver_s", "s"},
	{"network.injected", "count"},
	{"network.mean_latency_cycles", "cycles"},
	{"network.crossbar.injected", "count"},
	{"network.crossbar.refused_ratio", "ratio"},
	{"network.crossbar.mean_latency_cycles", "cycles"},
	{"network.omega.injected", "count"},
	{"network.omega.mean_latency_cycles", "cycles"},
	{"ultra.combine_ratio", "ratio"},

	// vn and the multiprocessor baselines.
	{"cmmp.run_s", "s"},
	{"ultra.run_s.combining", "s"},
	{"ultra.run_s.plain", "s"},
	{"cmstar.run_s", "s"},
	{"vn.retired", "count"},
	{"vn.busy_ratio", "ratio"},
	{"vn.mem_wait_cycles", "cycles"},
	{"cmmp.instr_per_increment", "count"},

	// sim engine.
	{"sim.steps_executed", "count"},
	{"sim.cycles_skipped", "count"},
	{"sim.wakes_enqueued", "count"},
	{"sim.steps_per_cycle", "ratio"},

	// direct.
	{"direct.run_s", "s"},

	// serve.
	{"serve.server_ms.miss", "ms"},
	{"serve.server_ms.hit", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.compile_s", "s"},
	{"serve.simulate_s.ttda", "s"},
	{"serve.simulate_s.direct", "s"},
	{"serve.simulate_s.cmmp", "s"},
	{"serve.simulate_s.vn", "s"},
	{"serve.overhead_ms", "ms"},
	{"serve.cold_p50_ms.ttda", "ms"},
	{"serve.cold_p50_ms.direct", "ms"},
	{"serve.cold_p50_ms.cmmp", "ms"},
	{"serve.cold_p50_ms.vn", "ms"},
	{"serve.executions", "count"},
	{"serve.hit_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.rejected_503", "count"},
	{"serve.cache_corrupt", "count"},

	// experiments and conformance.
	{"experiments.E1_s", "s"},
	{"experiments.E2_s", "s"},
	{"experiments.E3_s", "s"},
	{"experiments.E4_s", "s"},
	{"experiments.E5_s", "s"},
	{"experiments.E6_s", "s"},
	{"experiments.E7_s", "s"},
	{"experiments.E8_s", "s"},
	{"experiments.E9_s", "s"},
	{"experiments.E10_s", "s"},
	{"experiments.E11_s", "s"},
	{"experiments.E12_s", "s"},
	{"experiments.E13_s", "s"},
	{"experiments.E14_s", "s"},
	{"experiments.A1_s", "s"},
	{"experiments.A2_s", "s"},
	{"experiments.A3_s", "s"},
	{"experiments.A4_s", "s"},
	{"experiments.A5_s", "s"},
	{"conformance.checks", "count"},

	// runtime: allocation and GC, per operation.
	{"runtime.alloc_bytes", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},

	// The tracing itself.
	{"trace.overhead_ratio", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
}

// spanMetrics maps a span name to the per-layer metrics its self time
// feeds. Spans of several names feeding one metric are summed within an
// operation (core.run_s is the four programs' run time together).
var spanMetrics = map[string][]string{
	"id.compile":            {"id.compile_s"},
	"vn.assemble":           {"vn.assemble_s"},
	"core.build":            {"core.build_s"},
	"core.run.matmul":       {"core.run_s", "core.run_s.matmul"},
	"core.run.fib":          {"core.run_s", "core.run_s.fib"},
	"core.run.mergesort":    {"core.run_s", "core.run_s.mergesort"},
	"core.run.sumloop":      {"core.run_s", "core.run_s.sumloop"},
	"network":               {"network.self_s"},
	"network.deliver":       {"network.deliver_s"},
	"cmmp.run":              {"cmmp.run_s"},
	"ultra.run.combining":   {"ultra.run_s.combining"},
	"ultra.run.plain":       {"ultra.run_s.plain"},
	"cmstar.run":            {"cmstar.run_s"},
	"serve.compile":         {"serve.compile_s"},
	"serve.simulate.ttda":   {"serve.simulate_s.ttda"},
	"serve.simulate.direct": {"serve.simulate_s.direct", "direct.run_s"},
	"serve.simulate.cmmp":   {"serve.simulate_s.cmmp"},
	"serve.simulate.vn":     {"serve.simulate_s.vn"},
}

func init() {
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "A1", "A2", "A3", "A4", "A5"} {
		spanMetrics["experiments."+id] = []string{"experiments." + id + "_s"}
	}
}

// layerSelfTimes turns the spans into per-layer metrics: for each metric,
// the median over operations of the self time its spans spent in that
// operation.
func layerSelfTimes(tr *tracer) map[string]float64 {
	byMetric := map[string]map[uint64]float64{}
	for name, byOp := range tr.selfByOp() {
		for _, metric := range spanMetrics[name] {
			m := byMetric[metric]
			if m == nil {
				m = map[uint64]float64{}
				byMetric[metric] = m
			}
			for op, v := range byOp {
				m[op] += v
			}
		}
	}
	out := map[string]float64{}
	for metric, byOp := range byMetric {
		out[metric] = medianOf(byOp)
	}
	return out
}
