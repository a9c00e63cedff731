package main

// The metric declarations: the Go twin of BENCHMARK.json's end_to_end
// and per_layer lists. TestManifestMatchesBenchmarkJSON fails when the
// two drift apart, and runWorkload refuses to emit a name that is not
// declared here.

type decl struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// runSeconds is BENCHMARK.json's run_seconds, the default for -seconds.
const runSeconds = 18

// endToEnd are the metrics every workload reports on an untraced run.
// Each is defined, and never 0, on all five workloads; the service's
// latency percentiles exist on one workload only and so sit in perLayer
// under service.*.
var endToEnd = []decl{
	{"wall_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.12},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported by a traced run.
// Layers are the repo's packages; a layer a workload bypasses reads 0.
var perLayer = []decl{
	// sim — moves wall_s on engine_storm; at most a tenth of gossip_bare.
	{name: "sim.engine.ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.sharded1.ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.sharded2.ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.sharded.speedup_2v1", unit: "x", better: "higher"},
	{name: "sim.events", unit: "count", better: "lower"},
	{name: "sim.events_per_s", unit: "1/s", better: "higher"},
	{name: "sim.clamped_sends", unit: "count", better: "lower"},
	{name: "sim.storm.sends", unit: "count", better: "higher"},
	{name: "sim.storm.migrations", unit: "count", better: "higher"},
	{name: "sim.est_busy_s", unit: "s", better: "lower"},
	{name: "sim.est_share", unit: "frac", better: "lower"},
	{name: "sim.self_s", unit: "s", better: "lower"},
	// geo — wall_s on gossip_bare.
	{name: "geo.grid.near_ns", unit: "ns", better: "lower"},
	// mesh, sharded — moves wall_s on gossip_bare.
	{name: "mesh.shardnet.setup_s", unit: "s", better: "lower"},
	{name: "mesh.shardnet.run_s", unit: "s", better: "lower"},
	{name: "mesh.shardnet.published", unit: "count", better: "higher"},
	{name: "mesh.shardnet.delivered", unit: "count", better: "higher"},
	{name: "mesh.shardnet.duplicates", unit: "count", better: "lower"},
	{name: "mesh.shardnet.relays", unit: "count", better: "lower"},
	{name: "mesh.shardnet.repairs", unit: "count", better: "lower"},
	{name: "mesh.shardnet.dropped_dead", unit: "count", better: "lower"},
	{name: "mesh.shardnet.useful_ratio", unit: "frac", better: "higher"},
	{name: "mesh.shardnet.delivery_ratio", unit: "frac", better: "higher"},
	{name: "mesh.shardnet.speedup_2v1", unit: "x", better: "higher"},
	{name: "mesh.shardnet.bfs_wall_s", unit: "s", better: "lower"},
	// mesh, sequential — moves wall_s on mission_classic and service_flood.
	{name: "mesh.network.refresh_ms", unit: "ms", better: "lower"},
	{name: "mesh.network.refresh_ticks", unit: "count", better: "lower"},
	{name: "mesh.network.est_busy_s", unit: "s", better: "lower"},
	{name: "mesh.network.est_share", unit: "frac", better: "lower"},
	{name: "mesh.network.route_cold_us", unit: "us", better: "lower"},
	{name: "mesh.network.route_cached_us", unit: "us", better: "lower"},
	{name: "mesh.self_s", unit: "s", better: "lower"},
	// cop — moves wall_s on gossip_cop only.
	{name: "cop.encode_calls", unit: "count", better: "lower"},
	{name: "cop.encode_s", unit: "s", better: "lower"},
	{name: "cop.encode_bytes", unit: "B", better: "lower"},
	{name: "cop.encode_ns_per_call", unit: "ns", better: "lower"},
	{name: "cop.merge_calls", unit: "count", better: "lower"},
	{name: "cop.merge_s", unit: "s", better: "lower"},
	{name: "cop.merge_bytes_in", unit: "B", better: "lower"},
	{name: "cop.merge_ns_per_call", unit: "ns", better: "lower"},
	{name: "cop.share_1shard", unit: "frac", better: "lower"},
	{name: "cop.self_s", unit: "s", better: "lower"},
	// core — wall_s on mission_classic and service_flood.
	{name: "core.new_world_s", unit: "s", better: "lower"},
	{name: "core.synthesize_s", unit: "s", better: "lower"},
	{name: "core.start_s", unit: "s", better: "lower"},
	{name: "core.run_s", unit: "s", better: "lower"},
	{name: "core.success_rate", unit: "frac", better: "higher"},
	{name: "core.shardmission.events_per_s", unit: "1/s", better: "higher"},
	{name: "core.self_s", unit: "s", better: "lower"},
	// compose — wall_s on service_flood (synthesis once per short mission).
	{name: "compose.greedy_solve_ms", unit: "ms", better: "lower"},
	// track — mission_classic.
	{name: "track.observe_us", unit: "us", better: "lower"},
	{name: "track.self_s", unit: "s", better: "lower"},
	// verify — wall_s on mission_classic and service_flood, a few percent.
	{name: "verify.sweep_us", unit: "us", better: "lower"},
	{name: "verify.checks", unit: "count", better: "lower"},
	{name: "verify.est_busy_s", unit: "s", better: "lower"},
	{name: "verify.est_share", unit: "frac", better: "lower"},
	{name: "verify.self_s", unit: "s", better: "lower"},
	// checkpoint — service.recovery_p50_ms and wall_s on service_flood.
	{name: "checkpoint.capture_us", unit: "us", better: "lower"},
	{name: "checkpoint.cut_bytes", unit: "B", better: "lower"},
	{name: "checkpoint.cuts", unit: "count", better: "lower"},
	{name: "checkpoint.store.append_us", unit: "us", better: "lower"},
	{name: "checkpoint.store.sync_us", unit: "us", better: "lower"},
	{name: "checkpoint.store.recover_ms", unit: "ms", better: "lower"},
	// service — what a client of the flood sees, and wall_s on service_flood.
	{name: "service.missions_per_s", unit: "1/s", better: "higher"},
	{name: "service.first_event_p50_ms", unit: "ms", better: "lower"},
	{name: "service.first_event_p95_ms", unit: "ms", better: "lower"},
	{name: "service.recovery_p50_ms", unit: "ms", better: "lower"},
	{name: "service.submit_us_p50", unit: "us", better: "lower"},
	{name: "service.rejected_frac", unit: "frac", better: "lower"},
	{name: "service.crashes", unit: "count", better: "lower"},
	{name: "service.restarts", unit: "count", better: "lower"},
	{name: "service.recoveries", unit: "count", better: "higher"},
	{name: "service.checkpoints_persisted", unit: "count", better: "lower"},
	{name: "service.checkpoint_bytes", unit: "B", better: "lower"},
	{name: "service.mission_solo_ms", unit: "ms", better: "lower"},
	{name: "service.overhead_frac", unit: "frac", better: "lower"},
	{name: "service.self_s", unit: "s", better: "lower"},
	// host and the benchmark itself.
	{name: "host.gomaxprocs", unit: "count", better: "higher"},
	{name: "host.cpus", unit: "count", better: "higher"},
	{name: "host.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "host.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "host.cal_ms", unit: "ms", better: "lower"},
	{name: "host.wall_raw_s", unit: "s", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
	{name: "bench.units", unit: "count", better: "higher"},
}
