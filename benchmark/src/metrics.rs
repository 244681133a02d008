//! The metric vocabulary: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` lists the same names (plus direction and bound); the
//! smoke test asserts the two agree. README.md is the dictionary.

use crate::stats::Pick;
use std::collections::BTreeMap;

/// `(name, unit, which round is reported)` of every end-to-end metric, in
/// the order of `BENCHMARK.json`. All of them are measured with tracing off.
pub const END_TO_END: &[(&str, &str, Pick)] = &[
    ("setup_s", "s", Pick::Min),
    ("job_p50_ms", "ms", Pick::Min),
    ("job_p90_ms", "ms", Pick::Min),
    ("jobs_per_s", "jobs/s", Pick::Max),
    ("peak_rss_mb", "MB", Pick::Median),
];

/// `(name, unit)` of every per-layer metric, grouped by layer. A traced run
/// prints all of them for every workload; a metric of a layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // qcm-graph
    ("graph.load_s", "s"),
    ("graph.load_edges_per_s", "edges/s"),
    ("graph.content_hash_s", "s"),
    ("graph.kcore_s", "s"),
    ("graph.index_build_s", "s"),
    ("graph.index_memory_bytes", "bytes"),
    ("graph.index_hub_vertices", "count"),
    ("graph.has_edge_hub_ns", "ns"),
    ("graph.has_edge_nonhub_ns", "ns"),
    ("graph.common_neighbors_ns", "ns"),
    ("graph.bitset_and_count_ns_per_word", "ns/word"),
    ("graph.bitset_intersect_ns_per_word", "ns/word"),
    ("graph.edge_queries", "count"),
    ("graph.bitset_hits", "count"),
    ("graph.bitset_hit_ratio", "ratio"),
    ("graph.intersections", "count"),
    // qcm-core
    ("core.mine_s", "s"),
    ("core.nodes_expanded", "count"),
    ("core.nodes_per_s", "nodes/s"),
    ("core.bounding_rounds", "count"),
    ("core.type1_pruned", "count"),
    ("core.type2_pruned", "count"),
    ("core.lookahead_hits", "count"),
    ("core.critical_moves", "count"),
    ("core.cover_skipped", "count"),
    ("core.kcore_removed", "count"),
    ("core.results_per_node", "ratio"),
    ("core.maximal_share", "ratio"),
    ("core.scratch_pool_hits", "count"),
    ("core.scratch_fresh_allocs", "count"),
    ("core.scratch_bytes_peak", "bytes"),
    ("core.two_hop_ns", "ns"),
    ("core.iterative_bounding_us", "us"),
    ("core.remove_non_maximal_s", "s"),
    ("core.mine_phase_self_s", "s"),
    ("core.quick_s", "s"),
    ("core.vs_quick_ratio", "ratio"),
    ("core.quick_missed_results", "count"),
    // qcm-engine / qcm-parallel / qcm::Session
    ("engine.run_s", "s"),
    ("engine.run_1t_s", "s"),
    ("engine.scaling_efficiency", "ratio"),
    ("engine.tasks_spawned", "count"),
    ("engine.tasks_processed", "count"),
    ("engine.tasks_decomposed", "count"),
    ("engine.task_overhead_us", "us"),
    ("engine.worker_utilisation", "ratio"),
    ("engine.busy_imbalance", "ratio"),
    ("engine.steals", "count"),
    ("engine.stolen_tasks", "count"),
    ("engine.steal_failures", "count"),
    ("engine.steal_success_ratio", "ratio"),
    ("engine.pop_contention", "count"),
    ("engine.task_time_p50_ms", "ms"),
    ("engine.task_time_p99_ms", "ms"),
    ("engine.task_time_max_ms", "ms"),
    ("engine.peak_task_bytes", "bytes"),
    ("engine.spill_bytes_written", "bytes"),
    ("engine.remote_fetches", "count"),
    ("engine.remote_bytes", "bytes"),
    ("engine.vertex_cache_hit_ratio", "ratio"),
    ("engine.pull_retries", "count"),
    ("engine.transport_messages", "count"),
    ("engine.pull_self_s", "s"),
    ("engine.steal_self_s", "s"),
    ("engine.decompose_self_s", "s"),
    ("engine.task_self_s", "s"),
    ("engine.spill_self_s", "s"),
    ("parallel.duplicate_share", "ratio"),
    ("session.prepare_s", "s"),
    ("session.run_s", "s"),
    // qcm-service, driven in-process
    ("service.submit_hit_us", "us"),
    ("service.submit_miss_us", "us"),
    ("service.non_mining_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.jobs_mined", "count"),
    ("service.rejected", "count"),
    ("service.p50_latency_ms", "ms"),
    ("service.p99_latency_ms", "ms"),
    // qcm-http, driven in-process
    ("http.parse_head_ns", "ns"),
    ("http.submit_json_parse_ns", "ns"),
    ("http.route_submit_hit_us", "us"),
    ("http.route_poll_us", "us"),
    ("http.render_ns", "ns"),
    ("http.metrics_render_us", "us"),
    ("http.registry_resolve_cached_us", "us"),
    ("http.registry_load_ms", "ms"),
    ("http.graph_loads", "count"),
    ("http.socket_overhead_us", "us"),
    ("http.job_p99_ms", "ms"),
    // budget and overhead
    ("budget.residual_share", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// Per-layer values gathered during a traced run, keyed by metric name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics on a name [`PER_LAYER`] does not list: a typo must not
    /// silently print as 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let (known, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.0
            .insert(known, if value.is_finite() { value } else { 0.0 });
    }

    /// Takes over every value `other` recorded.
    pub fn extend(&mut self, other: &Layers) {
        self.0.extend(&other.0);
    }

    /// The value recorded under `name`; 0 for a layer this workload did not
    /// exercise.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}
