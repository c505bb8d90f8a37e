package main

// layerMetric is one per-layer metric of the traced run. Metrics a
// workload's operations never reach report 0.
type layerMetric struct {
	name, unit string
	// span, when set, names the span whose summed self time is the
	// value; otherwise the value comes from the counts the traced run
	// collected, or from derive.
	span   string
	derive func(self map[string]float64, m metrics) float64
}

// layerMetrics lists the per-layer metrics in BENCHMARK.json's order.
var layerMetrics = []layerMetric{
	{name: "model.parse_s", unit: "s", span: "model.parse"},
	{name: "reduce.reduce_s", unit: "s", span: "reduce.reduce"},
	{name: "nullspace.kernel_s", unit: "s", span: "nullspace.kernel"},
	{name: "core.begin_row_s", unit: "s", span: "core.begin_row"},
	{name: "core.generate_s", unit: "s", span: "core.generate"},
	{name: "core.merge_s", unit: "s", span: "core.merge"},
	{name: "core.pairs", unit: "count"},
	{name: "core.prefiltered", unit: "count"},
	{name: "core.pairs_per_s", unit: "1/s", derive: func(self map[string]float64, m metrics) float64 {
		return ratio(m["core.pairs"].Value, self["core.generate"])
	}},
	{name: "core.peak_bytes", unit: "bytes"},
	{name: "core.gen_s_sampled", unit: "s"},
	{name: "core.test_s_sampled", unit: "s"},
	{name: "linalg.rank_tests", unit: "count"},
	{name: "linalg.rank_accept_ratio", unit: "ratio", derive: func(self map[string]float64, m metrics) float64 {
		return ratio(m["linalg.rank_accepted"].Value, m["linalg.rank_tests"].Value)
	}},
	{name: "linalg.rank_tests_per_s", unit: "1/s", derive: func(self map[string]float64, m metrics) float64 {
		return ratio(m["linalg.rank_tests"].Value, self["core.generate"])
	}},
	{name: "bptree.tree_rejects", unit: "count"},
	{name: "core.encode_s", unit: "s", span: "core.encode"},
	{name: "core.decode_s", unit: "s", span: "core.decode"},
	{name: "core.payload_bytes_per_mode", unit: "bytes", derive: func(self map[string]float64, m metrics) float64 {
		return ratio(m["core.payload_bytes"].Value, m["core.payload_modes"].Value)
	}},
	{name: "store.hold_s", unit: "s", span: "store.hold"},
	{name: "store.materialize_s", unit: "s", span: "store.materialize"},
	{name: "store.compressions", unit: "count"},
	{name: "store.compress_ratio", unit: "ratio", derive: func(self map[string]float64, m metrics) float64 {
		return ratio(m["store.flat_bytes"].Value, m["store.held_bytes"].Value)
	}},
	{name: "elmocomp.compute_s", unit: "s", span: "elmocomp.compute"},
	{name: "elmocomp.verify_s", unit: "s", span: "elmocomp.verify"},
	{name: "elmocomp.verify_ratio", unit: "ratio", derive: func(self map[string]float64, m metrics) float64 {
		return ratio(self["elmocomp.verify"], self["core.run"])
	}},
	{name: "parallel.run_s", unit: "s", span: "parallel.run"},
	{name: "parallel.comm_bytes", unit: "bytes"},
	{name: "parallel.comm_messages", unit: "count"},
	{name: "parallel.communicate_s", unit: "s"},
	{name: "parallel.efficiency", unit: "ratio"},
	{name: "dnc.classes", unit: "count"},
	{name: "dnc.candidates", unit: "count"},
	{name: "dnc.candidate_ratio", unit: "ratio"},
	{name: "dnc.class_max_s", unit: "s"},
	{name: "dnc.peak_concurrent_bytes", unit: "bytes"},
	{name: "dnc.steals", unit: "count"},
	{name: "dnc.max_active", unit: "count"},
	{name: "distrib.classes", unit: "count"},
	{name: "distrib.payload_bytes", unit: "bytes"},
	{name: "distrib.wire_bytes", unit: "bytes"},
	{name: "distrib.wire_bytes_per_class", unit: "bytes", derive: func(self map[string]float64, m metrics) float64 {
		return ratio(m["distrib.wire_bytes"].Value, m["distrib.classes"].Value)
	}},
	{name: "distrib.requeues", unit: "count"},
	{name: "revsearch.run_s", unit: "s", span: "revsearch.run"},
	{name: "revsearch.bases", unit: "count"},
	{name: "revsearch.pivots", unit: "count"},
	{name: "revsearch.pivots_per_s", unit: "1/s", derive: func(self map[string]float64, m metrics) float64 {
		return ratio(m["revsearch.pivots"].Value, self["revsearch.run"])
	}},
	{name: "revsearch.max_depth", unit: "count"},
	{name: "ondemand.first_mode_s", unit: "s"},
	{name: "ondemand.run_s", unit: "s", span: "ondemand.run"},
	{name: "ondemand.bases", unit: "count"},
	{name: "ondemand.emit_ratio", unit: "ratio", derive: func(self map[string]float64, m metrics) float64 {
		return ratio(m["ondemand.emitted"].Value, m["ondemand.bases"].Value)
	}},
	{name: "ondemand.duplicates", unit: "count"},
	{name: "ondemand.verify_rejects", unit: "count"},
	{name: "lp.pivots", unit: "count"},
	{name: "lp.phase1_pivots", unit: "count"},
	{name: "lp.pivots_per_s", unit: "1/s", derive: func(self map[string]float64, m metrics) float64 {
		return ratio(m["lp.pivots"].Value, self["ondemand.run"])
	}},
	{name: "jobs.queue_wait_s", unit: "s"},
	{name: "jobs.run_s", unit: "s"},
	{name: "jobs.runs_started", unit: "count"},
	{name: "jobs.cache_hits", unit: "count"},
	{name: "jobs.prefix_hits", unit: "count"},
	{name: "jobs.coalesced", unit: "count"},
	{name: "jobs.hit_ratio", unit: "ratio", derive: func(self map[string]float64, m metrics) float64 {
		return ratio(m["jobs.cache_hits"].Value+m["jobs.prefix_hits"].Value, m["jobs.submitted"].Value)
	}},
	{name: "server.submit_s", unit: "s", span: "server.submit"},
	{name: "server.result_s", unit: "s", span: "server.result"},
	{name: "server.result_bytes", unit: "bytes", derive: func(self map[string]float64, m metrics) float64 {
		return ratio(m["server.result_bytes"].Value, m["server.supports_results"].Value)
	}},
	{name: "trace.wall_s", unit: "s"},
	{name: "trace.untraced_wall_s", unit: "s"},
	{name: "trace.overhead_ratio", unit: "ratio", derive: func(self map[string]float64, m metrics) float64 {
		return ratio(m["trace.wall_s"].Value, m["trace.untraced_wall_s"].Value) - 1
	}},
	{name: "trace.replay_rows_checked", unit: "count"},
}

// perLayer reduces the traced run's spans and counts to the per-layer
// metrics. tracedWall is the traced counterpart of the untraced pass's
// wall time, untraced that wall time; their ratio is the tracing
// overhead.
func perLayer(spans []span, counts metrics, tracedWall, untraced float64) metrics {
	self := selfTimes(spans)
	counts.set("trace.wall_s", tracedWall, "s")
	counts.set("trace.untraced_wall_s", untraced, "s")
	out := metrics{}
	for _, lm := range layerMetrics {
		var v float64
		switch {
		case lm.span != "":
			v = self[lm.span]
		case lm.derive != nil:
			v = lm.derive(self, counts)
		default:
			v = counts[lm.name].Value
		}
		out.set(lm.name, v, lm.unit)
	}
	return out
}
