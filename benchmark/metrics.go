package main

// metricDef names one metric. The lists below are the source the program
// emits from; BENCHMARK.json restates them for the driver and a test keeps
// the two identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by; layer metrics explain and never gate, so theirs is 0.
	Bound float64
}

// endToEndMetrics are measured with tracing off. Each is the median over
// the ensemble's units; the time metrics are in calibrated seconds (see
// calib.go). fail_share (failed ÷ attempted) is not listed: the
// result line carries attempted and failed themselves, and a metric that is
// 0 on every healthy run has no relative bound.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ns_per_query", "ns", "lower", 0.25},
	{"cells_per_s", "1/s", "higher", 0.25},
	{"allocs_per_query", "count", "lower", 0.05},
	{"bytes_per_query", "B", "lower", 0.06},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are measured by the traced run. They explain an end-to-end
// movement; they never gate. Every workload emits every name: a layer that
// does no work in a workload (gossip under Flooding) honestly reads 0.
var perLayer = layerMetrics()

func layerMetrics() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// Observer spans: self time of every delivered event, by kind.
	for _, k := range spanKinds {
		add("count", "lower", k.metric+".count")
		add("s", "lower", k.metric+".self_s")
		add("ns", "lower", k.metric+".ns_per_event")
	}
	add("ratio", "lower", "host.slowdown")
	add("ratio", "higher", "trace.coverage")
	add("ratio", "lower", "trace.overhead_share", "obs.attached_overhead_share", "trace.recorder_overhead_share")
	// Counts made by the program; they repeat exactly for a seed.
	add("count", "lower", "sim.events", "sim.events_per_query", "sim.scheduled", "sim.cancelled", "sim.queue_depth_high_water")
	add("1/s", "higher", "sim.events_per_s")
	add("count", "lower", "protocol.messages_per_query", "protocol.forwards_bloom", "protocol.forwards_gid",
		"protocol.forwards_fallback", "protocol.forwards_flood", "protocol.control_messages",
		"protocol.pending_high_water", "protocol.stale_bloom_fallbacks", "cache.misses", "bloom.install_copies")
	add("count", "higher", "protocol.storage_hits", "cache.hits")
	add("ratio", "higher", "protocol.success_rate", "cache.hit_ratio")
	add("count", "lower", "runtime.gc_cycles")
	add("ms", "lower", "runtime.gc_pause_total_ms")
	// Build spans and direct probes of each layer.
	add("s", "lower", "netmodel.build_s", "overlay.build_s", "workload.build_s", "protocol.build_s", "core.build_residual_s")
	add("B", "lower", "core.heap_bytes_per_peer")
	add("ns", "lower", "sim.pushpop_ns.dense", "sim.pushpop_ns.sparse", "sim.dispatch_ns", "netmodel.rtt_ns",
		"bloom.test_ns", "bloom.add_ns", "bloom.diff_ns", "cache.lookup_ns", "cache.put_ns",
		"overlay.neighbors_ns", "workload.next_ns", "workload.match_ns", "metrics.record_ns")
	add("s", "lower", "core.build_s.2k", "core.build_s.20k", "core.build_s.100k")
	add("B", "lower", "core.heap_bytes_per_peer.2k", "core.heap_bytes_per_peer.20k", "core.heap_bytes_per_peer.100k")
	// The sharded drain on two shards, and the naive baseline.
	add("ns", "lower", "sim.sharded2.ns_per_query")
	add("ratio", "higher", "sim.sharded2.speedup")
	add("count", "lower", "sim.sharded2.epochs", "sim.sharded2.cross_shard_events")
	add("ns", "lower", "naive.flood.ns_per_event")
	add("count", "lower", "naive.flood.events")
	// The workload as a campaign: sweep, executor and checkpoint layers.
	add("s", "lower", "sweep.plan_s", "sweep.cell_s.p50", "sweep.cell_s.max", "sweep.export_s", "campaign.checkpoint_write_s")
	add("count", "lower", "sweep.runs", "sweep.queries_total")
	add("ratio", "higher", "exper.parallel_efficiency")
	add("1/s", "higher", "campaign.resume_cells_per_s")
	return defs
}
