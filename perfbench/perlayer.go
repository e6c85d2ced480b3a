package main

// perLayerUnits lists the per-layer metrics the traced run reports, in
// BENCHMARK.json order. The prefix names the module the benchmark times
// from outside; README.md maps each to the end-to-end metric it should
// move.
var perLayerUnits = []nameUnit{
	{"engine.arena.replicate_ms", "ms"},
	{"engine.arena.ns_per_event", "ns"},
	{"engine.arena.allocs_per_replicate", "count"},
	{"engine.arena.build_ms", "ms"},
	{"engine.arena.reconfigure_ms", "ms"},
	{"engine.grid.first_point_ms", "ms"},
	{"engine.grid.point_gap_p50_ms", "ms"},
	{"engine.grid.point_gap_p90_ms", "ms"},
	{"engine.grid.busy_frac", "ratio"},
	{"engine.grid.speedup_w1", "ratio"},
	{"engine.grid.dedup_cells", "count"},
	{"stats.runs_used", "count"},
	{"stats.ci_half_width_max", "ratio"},
	{"stats.accumulator_add_ns", "ns"},
	{"sim.events_per_replicate", "count"},
	{"sim.mix.job-start", "count"},
	{"sim.mix.ckpt-request", "count"},
	{"sim.mix.ckpt-grant", "count"},
	{"sim.mix.ckpt-commit", "count"},
	{"sim.mix.failure", "count"},
	{"sim.mix.job-killed", "count"},
	{"sim.mix.regular-io", "count"},
	{"sim.schedule_step_ns", "ns"},
	{"sim.cancel_ns", "ns"},
	{"platform.alloc_ns_per_node", "ns"},
	{"platform.owner_ns", "ns"},
	{"jobsched.firstfit_ns", "ns"},
	{"iomodel.token_cycle_ns", "ns"},
	{"iomodel.shared_abort_ns", "ns"},
	{"iomodel.ckpt_cut_frac", "ratio"},
	{"workload.generate_us", "us"},
	{"workload.jobs_per_replicate", "count"},
	{"failure.events_per_replicate", "count"},
	{"metrics.ledger_add_ns", "ns"},
	{"api.decode_spec_us", "us"},
	{"api.encode_frame_us", "us"},
	{"api.frame_bytes", "B"},
	{"server.submit_p50_ms", "ms"},
	{"server.stream_ttfb_ms", "ms"},
	{"server.frame_gap_p50_ms", "ms"},
	{"server.rejected_frac", "ratio"},
	{"server.live_campaigns", "count"},
	{"campaign.journal_bytes_per_point", "B"},
	{"campaign.replay_ms", "ms"},
	{"resultcache.hit_frac", "ratio"},
	{"resultcache.get_us", "us"},
	{"resultcache.put_us", "us"},
	{"trace.overhead.sweep_s", "ratio"},
	{"trace.overhead.replicates_per_s", "ratio"},
	{"trace.overhead.campaign_p50_ms", "ratio"},
	{"trace.overhead.campaign_p90_ms", "ratio"},
	{"trace.overhead.first_frame_p50_ms", "ratio"},
	{"trace.overhead.first_frame_p90_ms", "ratio"},
	{"trace.overhead.campaigns_per_s", "ratio"},
	{"trace.overhead.setup_s", "ratio"},
	{"trace.spans", "count"},
	{"trace.root_self_frac_max", "ratio"}, // over roots with children
}

// traceKinds are the Config.Trace event kinds the sim.mix metrics count.
var traceKinds = []string{"job-start", "ckpt-request", "ckpt-grant", "ckpt-commit", "failure", "job-killed", "regular-io"}

// overhead records the traced-vs-untraced difference of each end-to-end
// metric as a ratio: traced / untraced - 1.
func overhead(m, untraced, traced map[string]float64) {
	for _, nu := range endToEndUnits {
		if nu.name == "peak_rss_mb" {
			continue // one process holds both passes; its peak is shared
		}
		m["trace.overhead."+nu.name] = traced[nu.name]/untraced[nu.name] - 1
	}
}
