package main

// The metric sets this benchmark prints. BENCHMARK.json declares the same
// names and units (the unit test compares the two); definitions, directions
// and bounds are documented in README.md.

type metricDef struct{ name, unit string }

// endToEnd is printed by the untraced run (-trace 0), the same names on
// every workload.
var endToEnd = []metricDef{
	{"unit_cpu_norm_ms_p50", "ms"}, // median process CPU (user+sys) per unit, at the nominal host speed
	{"unit_mallocs_k_p50", "kobj"}, // median heap objects allocated per unit, thousands
	{"unit_alloc_mib_p50", "MiB"},  // median heap bytes allocated per unit
	{"peak_rss_mib", "MiB"},        // VmHWM at the end of the measured phase
	{"setup_s", "s"},               // median process CPU from process start to the end of the first (cold) unit, at the nominal host speed
}

// driverMetrics are the layer drivers' outputs (drivers.go).
var driverMetrics = []metricDef{
	{"sim.event_ns", "ns"},
	{"sim.heap4k_event_ns", "ns"},
	{"sim.task_step_ns", "ns"},
	{"sim.allocs_per_event", "count"},
	{"sim.handoff_ns", "ns"},
	{"sim.handoff_gp2_ratio", "ratio"},
	{"sim.spawn_exit_us", "us"},
	{"sim.timer_ns", "ns"},
	{"sim.shard2_ratio", "ratio"},
	{"fabric.packet_ns", "ns"},
	{"fabric.allocs_per_packet", "count"},
	{"fabric.signal_ns", "ns"},
	{"fabric.stripe_ns_per_mb", "ns"},
	{"fabric.lossy_packet_ns", "ns"},
	{"fabric.retx_per_kpkt", "count"},
	{"fabric.build_us_per_rank", "us"},
	{"topo.build_ms", "ms"},
	{"topo.hop_ns", "ns"},
	{"topo.queued_us_per_pkt", "virtual_us"},
	{"topo.stalls_per_kpkt", "count"},
	{"mpi.pingpong_ns", "ns"},
	{"mpi.barrier64_ns_per_rank", "ns"},
	{"mpi.allreduce64_ns_per_rank", "ns"},
	{"mpi.proc_world_us_per_rank", "us"},
	{"mpi.task_world_us_per_rank", "us"},
	{"core.gats_epoch_ns", "ns"},
	{"core.gats_nb_epoch_ns", "ns"},
	{"core.fence_epoch_ns", "ns"},
	{"core.lock_epoch_ns", "ns"},
	{"core.vanilla_gats_epoch_ns", "ns"},
	{"core.flush_put_ns", "ns"},
	{"core.signal_gats_epoch_ns", "ns"},
	{"core.mallocs_per_gats_epoch", "count"},
	{"core.events_per_gats_epoch", "count"},
	{"core.win_create_us_per_rank", "us"},
	{"kvstore.op_cpu_us", "us"},
	{"kvstore.chaos_op_cpu_us", "us"},
	{"kvstore.retries_per_kop", "count"},
	{"kvstore.failover_share", "fraction"},
	{"fuzz.generate_us", "us"},
	{"fuzz.execute_us", "us"},
	{"fuzz.verify_us", "us"},
	{"par.w2_speedup", "ratio"},
	{"trace.analyze_us_per_kevent", "us"},
}

// perLayer is printed by the traced run (-trace 1): the profile shares and
// call spans of the workload that ran, the layer drivers, and the tracing
// overhead. Spans of calls the workload does not make read 0.
func perLayer() []metricDef {
	var defs []metricDef
	for _, b := range profileBins {
		defs = append(defs, metricDef{"self_share." + b, "fraction"})
	}
	for _, w := range workloads {
		for _, c := range w.calls {
			defs = append(defs, metricDef{"span_cpu_ms." + c.name, "ms"})
		}
	}
	defs = append(defs, driverMetrics...)
	return append(defs,
		metricDef{"trace_overhead_pct", "%"},
		metricDef{"host.ref_kernel_ms", "ms"},
		// The workload's headline simulated latency. Deterministic, so it is
		// not an end-to-end metric (a time that reads the same on every run
		// is refused there); sim_digest and the shape invariants guard it.
		metricDef{"sim_latency_us", "virtual_us"})
}
