//! Per-layer probes: each layer measured from outside, by timing calls into
//! its public functions on the workload's own inputs.
//!
//! Every call goes through the harness [`Recorder`], so the probes appear in
//! the Chrome trace beside the rounds. Kernel figures are per operation over
//! a seeded operation stream; everything else is a median of repeats.

use crate::metrics::{ratio, Layers};
use crate::spans::Recorder;
use crate::stats::{median, percentile, sorted};
use crate::workloads::{Kind, Prepared, Workload};
use qcm::core::{
    iterative_bounding, remove_non_maximal, two_hop_bits_into, MiningContext, PruneConfig,
    QuasiCliqueSet, QuasiCliqueSink,
};
use qcm::graph::kcore::k_core_vertices;
use qcm::graph::{io, Graph, LocalGraph, VertexBitSet, VertexId};
use qcm::prelude::{quick_mine, MiningParams, SerialMiner};
use qcm::{IndexSpec, NeighborhoodIndex};
use qcm_http::parser::parse_head;
use qcm_http::{router, wire, Api, AuthConfig, GraphRegistry};
use qcm_obs::json::Json;
use qcm_service::{JobRequest, MiningService, ServiceConfig};
use qcm_sync::Arc;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Operation counts of the probes; `quick` shrinks them for the smoke test.
#[derive(Clone, Copy)]
pub struct Effort {
    /// `has_edge`, `common_neighbor_count`, head and JSON parses, renders.
    pub kernel_ops: usize,
    /// Costlier calls: two-hop, cached submits, routed requests.
    pub call_ops: usize,
    /// Words ANDed per bitset kernel figure.
    pub bitset_words: usize,
}

impl Effort {
    pub fn new(quick: bool) -> Effort {
        if quick {
            Effort {
                kernel_ops: 20_000,
                call_ops: 500,
                bitset_words: 1 << 20,
            }
        } else {
            Effort {
                kernel_ops: 1_000_000,
                call_ops: 20_000,
                bitset_words: 100 << 20,
            }
        }
    }
}

const REPEATS: usize = 3;

/// Median seconds of [`REPEATS`] timed calls of `f`, each under a span, and
/// what the last call returned.
fn timed<T>(spans: &mut Recorder, name: &str, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::with_capacity(REPEATS);
    let mut last = None;
    for _ in 0..REPEATS {
        let id = spans.begin(name, 0);
        let started = Instant::now();
        last = Some(black_box(f()));
        samples.push(started.elapsed().as_secs_f64());
        spans.end(id);
    }
    (median(&samples), last.expect("REPEATS is not zero"))
}

/// Nanoseconds per operation of `ops` calls of `f(i)`, under one span.
fn per_op_ns(spans: &mut Recorder, name: &str, ops: usize, mut f: impl FnMut(usize)) -> f64 {
    let id = spans.begin(name, ops as u64);
    let started = Instant::now();
    for i in 0..ops {
        f(i);
    }
    let elapsed = started.elapsed().as_secs_f64();
    spans.end(id);
    ratio(elapsed * 1e9, ops as f64)
}

/// `qcm-graph`: load, hash, k-core, index build and the edge-query and
/// bitset kernels, on the workload's first graph file.
pub fn graph(
    layers: &mut Layers,
    spans: &mut Recorder,
    path: &Path,
    params: MiningParams,
    effort: Effort,
    seed: u64,
) -> Arc<Graph> {
    let (load_s, graph) = timed(spans, "graph.load", || {
        io::read_edge_list_file(path).expect("reading the edge list")
    });
    let graph = Arc::new(graph);
    layers.set("graph.load_s", load_s);
    layers.set(
        "graph.load_edges_per_s",
        ratio(graph.num_edges() as f64, load_s),
    );
    layers.set(
        "graph.content_hash_s",
        timed(spans, "graph.content_hash", || graph.content_hash()).0,
    );
    layers.set(
        "graph.kcore_s",
        timed(spans, "graph.kcore", || {
            k_core_vertices(&graph, params.kcore_threshold())
        })
        .0,
    );
    let (index_build_s, index) = timed(spans, "graph.index_build", || {
        NeighborhoodIndex::build(graph.clone(), IndexSpec::Auto)
    });
    layers.set("graph.index_build_s", index_build_s);
    layers.set("graph.index_memory_bytes", index.memory_bytes() as f64);
    layers.set("graph.index_hub_vertices", index.hub_count() as f64);

    let mut rng = StdRng::seed_from_u64(seed);
    let n = graph.num_vertices() as u32;
    let connected: Vec<VertexId> = graph.vertices().filter(|&v| graph.degree(v) > 0).collect();
    let (hubs, others): (Vec<VertexId>, Vec<VertexId>) =
        connected.iter().partition(|&&v| index.is_hub(v));
    // A fixed window of seeded operands, cycled: the stream repeats, the
    // graph's rows stay the working set.
    let mut pairs = |from: &[VertexId]| -> Vec<(VertexId, VertexId)> {
        (0..4096.min(from.len() * 64))
            .map(|_| {
                let u = from[rng.gen_range(0..from.len())];
                (u, VertexId::new(rng.gen_range(0..n)))
            })
            .collect()
    };
    let has_edge = |spans: &mut Recorder, name: &str, operands: &[(VertexId, VertexId)]| {
        if operands.is_empty() {
            return 0.0;
        }
        per_op_ns(spans, name, effort.kernel_ops, |i| {
            let (u, v) = operands[i % operands.len()];
            black_box(index.has_edge(u, v));
        })
    };
    let hub_pairs = pairs(&hubs);
    let other_pairs = pairs(&others);
    layers.set(
        "graph.has_edge_hub_ns",
        has_edge(spans, "graph.has_edge_hub", &hub_pairs),
    );
    layers.set(
        "graph.has_edge_nonhub_ns",
        has_edge(spans, "graph.has_edge_nonhub", &other_pairs),
    );
    // Common neighbours of the two ends of seeded edges.
    let edges: Vec<(VertexId, VertexId)> = (0..4096.min(connected.len() * 64))
        .map(|_| {
            let u = connected[rng.gen_range(0..connected.len())];
            let neighbors = graph.neighbors(u);
            (u, neighbors[rng.gen_range(0..neighbors.len())])
        })
        .collect();
    if !edges.is_empty() {
        layers.set(
            "graph.common_neighbors_ns",
            per_op_ns(spans, "graph.common_neighbors", effort.kernel_ops, |i| {
                let (u, v) = edges[i % edges.len()];
                black_box(index.common_neighbor_count(u, v));
            }),
        );
    }

    // Word kernels on two rows as wide as the graph, one vertex in eight set.
    let members =
        |rng: &mut StdRng| -> Vec<u32> { (0..n).filter(|_| rng.gen_range(0..8u32) == 0).collect() };
    let mut a = VertexBitSet::from_members(n as usize, &members(&mut rng));
    let b = VertexBitSet::from_members(n as usize, &members(&mut rng));
    let words = (n as usize).div_ceil(64).max(1);
    let ops = (effort.bitset_words / words).clamp(1_000, 1_000_000);
    let and_count = per_op_ns(spans, "graph.bitset_and_count", ops, |_| {
        black_box(black_box(&a).intersection_count(black_box(&b)));
    });
    layers.set(
        "graph.bitset_and_count_ns_per_word",
        and_count / words as f64,
    );
    let intersect = per_op_ns(spans, "graph.bitset_intersect", ops, |_| {
        a.intersect_with(black_box(&b));
        black_box(&a);
    });
    layers.set(
        "graph.bitset_intersect_ns_per_word",
        intersect / words as f64,
    );
    graph
}

/// Collects every raw candidate the search reports.
struct RawCandidates(QuasiCliqueSet);

impl QuasiCliqueSink for RawCandidates {
    fn report(&mut self, members: Vec<VertexId>) {
        self.0.insert(members);
    }
}

/// `qcm-core`: the search counters of the `SerialMiner` references, and the
/// two-hop, bounding and post-processing calls on the first graph.
pub fn core(
    layers: &mut Layers,
    spans: &mut Recorder,
    graph: &Graph,
    params: MiningParams,
    prepared: &Prepared,
    effort: Effort,
    seed: u64,
) {
    let mut stats = qcm::prelude::MiningStats::new();
    let (mut raw, mut maximal, mut reference_s) = (0u64, 0usize, 0.0);
    for input in &prepared.graphs {
        stats.merge(&input.reference_stats);
        raw += input.reference_raw;
        maximal += input.reference.len();
        reference_s += input.reference_s;
    }
    let nodes = stats.nodes_expanded as f64;
    layers.set("core.nodes_expanded", nodes);
    layers.set("core.nodes_per_s", ratio(nodes, reference_s));
    layers.set("core.bounding_rounds", stats.bounding_rounds as f64);
    layers.set("core.type1_pruned", stats.type1_pruned as f64);
    layers.set("core.type2_pruned", stats.type2_pruned as f64);
    layers.set("core.lookahead_hits", stats.lookahead_hits as f64);
    layers.set("core.critical_moves", stats.critical_moves as f64);
    layers.set("core.cover_skipped", stats.cover_skipped as f64);
    layers.set("core.kcore_removed", stats.kcore_removed as f64);
    layers.set("core.results_per_node", ratio(raw as f64, nodes));
    layers.set("core.maximal_share", ratio(maximal as f64, raw as f64));

    // Post-processing alone, on the raw candidates of the first graph.
    let mut candidates = RawCandidates(QuasiCliqueSet::new());
    spans.scope("core.mine_with_observer", 0, || {
        SerialMiner::new(params).mine_with_observer(graph, &mut candidates)
    });
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let input = candidates.0.clone();
            let id = spans.begin("core.remove_non_maximal", 0);
            let started = Instant::now();
            black_box(remove_non_maximal(input));
            let elapsed = started.elapsed().as_secs_f64();
            spans.end(id);
            elapsed
        })
        .collect();
    layers.set("core.remove_non_maximal_s", median(&samples));

    // The working subgraph as `SerialMiner` builds it: k-core, hub index.
    let survivors = k_core_vertices(graph, params.kcore_threshold());
    if survivors.is_empty() {
        return;
    }
    let mut work = LocalGraph::from_induced(graph, &survivors);
    work.build_hub_index(IndexSpec::Auto);
    let capacity = work.capacity();
    let mut rng = StdRng::seed_from_u64(seed);
    let roots: Vec<u32> = (0..4096)
        .map(|_| rng.gen_range(0..capacity as u32))
        .collect();
    let mut seen = VertexBitSet::new(capacity);
    let mut hop: Vec<u32> = Vec::new();
    layers.set(
        "core.two_hop_ns",
        per_op_ns(spans, "core.two_hop", effort.call_ops, |i| {
            seen.clear();
            two_hop_bits_into(&work, roots[i % roots.len()], &mut seen, &mut hop);
            black_box(&seen);
        }),
    );

    // Algorithm 1 alone, on the root whose ext(S) is largest.
    let ext_of = |v: u32, seen: &mut VertexBitSet, hop: &mut Vec<u32>| -> Vec<u32> {
        seen.clear();
        two_hop_bits_into(&work, v, seen, hop);
        seen.iter().filter(|&u| u > v).collect()
    };
    let heaviest = (0..capacity as u32)
        .max_by_key(|&v| ext_of(v, &mut seen, &mut hop).len())
        .expect("the k-core is not empty");
    let ext = ext_of(heaviest, &mut seen, &mut hop);
    let samples: Vec<f64> = (0..20)
        .map(|_| {
            let mut sink = QuasiCliqueSet::new();
            let mut ctx =
                MiningContext::with_config(&work, params, PruneConfig::all_enabled(), &mut sink);
            let (mut s, mut ext) = (vec![heaviest], ext.clone());
            let id = spans.begin("core.iterative_bounding", heaviest as u64);
            let started = Instant::now();
            black_box(iterative_bounding(&mut ctx, &mut s, &mut ext));
            let elapsed = started.elapsed().as_secs_f64();
            spans.end(id);
            elapsed * 1e6
        })
        .collect();
    layers.set("core.iterative_bounding_us", median(&samples));
}

/// The in-tree Quick baseline against the full algorithm, on the
/// bench-scale Enron stand-in (full Enron takes 15 s under Quick).
pub fn quick_baseline(layers: &mut Layers, spans: &mut Recorder, quick: bool) {
    let enron = qcm::gen::datasets::enron();
    let spec = if quick {
        qcm_bench::scaled::tiny(&enron)
    } else {
        qcm_bench::scaled::bench_scale(&enron)
    };
    let graph = spec.generate().graph;
    let params = MiningParams::new(spec.gamma, spec.min_size);
    let started = Instant::now();
    let baseline = spans.scope("core.quick_mine", 0, || quick_mine(&graph, params));
    let quick_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let full = spans.scope("core.serial_mine", 0, || {
        SerialMiner::new(params).mine(&graph)
    });
    let full_s = started.elapsed().as_secs_f64();
    let missed = full
        .maximal
        .iter()
        .filter(|set| !baseline.maximal.contains(set))
        .count();
    layers.set("core.quick_s", quick_s);
    layers.set("core.vs_quick_ratio", ratio(quick_s, full_s));
    layers.set("core.quick_missed_results", missed as f64);
}

/// `qcm-service`, driven in-process with no socket: submit cost on a miss
/// and on a hit, and the non-mining share of a mined job.
pub fn service(layers: &mut Layers, spans: &mut Recorder, prepared: &Prepared, effort: Effort) {
    let service = MiningService::start(ServiceConfig::default());
    let loaded: Vec<(Arc<Graph>, u64, f64, usize)> = prepared
        .graphs
        .iter()
        .map(|g| {
            let graph = io::read_auto_file(prepared.dir.join(&g.file)).expect("reading a graph");
            let hash = graph.content_hash();
            (Arc::new(graph), hash, g.gamma, g.min_size)
        })
        .collect();
    let request = |i: usize| {
        let (graph, hash, gamma, min_size) = &loaded[i % loaded.len()];
        JobRequest::new(graph.clone(), *gamma, *min_size).fingerprint(*hash)
    };
    let (mut miss_us, mut non_mining_ms) = (Vec::new(), Vec::new());
    for i in 0..loaded.len() {
        let id = spans.begin("service.job_miss", i as u64);
        let started = Instant::now();
        let job = service.submit(request(i)).expect("an idle service admits");
        miss_us.push(started.elapsed().as_secs_f64() * 1e6);
        let result = service
            .poll_fetch(job, Duration::from_secs(120))
            .expect("the job is known")
            .expect("a small graph mines within two minutes");
        let total = started.elapsed();
        spans.end(id);
        non_mining_ms.push(
            total
                .saturating_sub(result.answer.mining_time)
                .as_secs_f64()
                * 1e3,
        );
    }
    let mut hit_us = Vec::with_capacity(effort.call_ops);
    let id = spans.begin("service.jobs_hit", effort.call_ops as u64);
    for i in 0..effort.call_ops {
        let started = Instant::now();
        let job = service
            .submit(request(i))
            .expect("cache hits bypass admission");
        black_box(service.try_fetch(job).expect("the job is known"));
        hit_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    spans.end(id);
    service.shutdown();
    layers.set("service.submit_miss_us", median(&miss_us));
    layers.set("service.non_mining_ms", median(&non_mining_ms));
    layers.set("service.submit_hit_us", median(&hit_us));
}

/// `qcm-http`, in-process: parse, route, render and the graph registry.
/// Returns the p50 of one job through `router::route` with no socket, µs:
/// first touch of each graph on the cold workload, primed repeats on the hot.
pub fn http(
    layers: &mut Layers,
    spans: &mut Recorder,
    workload: &Workload,
    prepared: &Prepared,
    effort: Effort,
) -> f64 {
    let api =
        Api::start(ServiceConfig::default(), AuthConfig::open()).with_graph_root(&prepared.dir);
    // Repeats cycle over at most this many graphs: the registry keeps 64
    // paths, and a cycle over more reloads a file on every submit.
    let resident = prepared.graphs.len().min(8);
    let body = |i: usize| {
        let g = &prepared.graphs[i];
        format!(
            "{{\"graph\":{},\"gamma\":{},\"min_size\":{}}}",
            Json::from(g.file.as_str()).render(),
            g.gamma,
            g.min_size
        )
    };
    let post = |len: usize| {
        format!("POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nContent-Length: {len}\r\n\r\n")
    };
    let poll_head = |id: u64| {
        parse_head(format!("GET /v1/jobs/{id}?wait_ms=2000 HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .expect("a well-formed head")
    };
    let job_id = |response: &qcm_http::Response| -> u64 {
        let text = String::from_utf8_lossy(&response.body);
        Json::parse(&text)
            .ok()
            .and_then(|j| j.get("job").and_then(Json::as_f64))
            .expect("a 202 body carries the job id") as u64
    };

    let raw_head = post(body(0).len());
    layers.set(
        "http.parse_head_ns",
        per_op_ns(spans, "http.parse_head", effort.kernel_ops, |_| {
            black_box(parse_head(black_box(raw_head.as_bytes())).is_ok());
        }),
    );
    let raw_body = body(0);
    layers.set(
        "http.submit_json_parse_ns",
        per_op_ns(spans, "http.submit_json_parse", effort.kernel_ops, |_| {
            black_box(wire::submit_request_from_json(black_box(raw_body.as_bytes())).is_ok());
        }),
    );

    // First touch of every graph: registry load, hash, prepare, mine, render.
    let mut first_touch_us = Vec::new();
    let mut last_view = None;
    for i in 0..prepared.graphs.len() {
        let raw_body = body(i);
        let head = parse_head(post(raw_body.len()).as_bytes()).expect("head");
        let id = spans.begin("http.job_first_touch", i as u64);
        let started = Instant::now();
        let accepted = router::route(&api, &head, raw_body.as_bytes());
        let view = router::route(&api, &poll_head(job_id(&accepted)), b"");
        first_touch_us.push(started.elapsed().as_secs_f64() * 1e6);
        spans.end(id);
        last_view = Some(view);
    }
    // Primed repeats: submit answered by the result cache, poll of a
    // finished job.
    let (mut submit_us, mut poll_us) = (Vec::new(), Vec::new());
    let id = spans.begin("http.jobs_hit", effort.call_ops as u64);
    for i in 0..effort.call_ops {
        let raw_body = body(i % resident);
        let head = parse_head(post(raw_body.len()).as_bytes()).expect("head");
        let started = Instant::now();
        let accepted = router::route(&api, &head, raw_body.as_bytes());
        submit_us.push(started.elapsed().as_secs_f64() * 1e6);
        let head = poll_head(job_id(&accepted));
        let started = Instant::now();
        black_box(router::route(&api, &head, b""));
        poll_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    spans.end(id);
    let (submit_p50, poll_p50) = (median(&submit_us), median(&poll_us));
    layers.set("http.route_submit_hit_us", submit_p50);
    layers.set("http.route_poll_us", poll_p50);

    let view = last_view.expect("every serve workload has a graph");
    layers.set(
        "http.render_ns",
        per_op_ns(spans, "http.render", effort.kernel_ops, |_| {
            black_box(black_box(&view).render(true));
        }),
    );
    let samples: Vec<f64> = (0..200.min(effort.call_ops))
        .map(|_| {
            let started = Instant::now();
            black_box(api.metrics_prometheus());
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    layers.set("http.metrics_render_us", median(&samples));
    api.shutdown();

    let mut registry = GraphRegistry::default();
    registry.set_root(prepared.dir.clone());
    let load_ms: Vec<f64> = prepared
        .graphs
        .iter()
        .map(|g| {
            let id = spans.begin("http.registry_load", 0);
            let started = Instant::now();
            black_box(registry.resolve(&g.file).is_ok());
            spans.end(id);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    layers.set("http.registry_load_ms", median(&load_ms));
    let last = &prepared.graphs[prepared.graphs.len() - 1].file;
    layers.set(
        "http.registry_resolve_cached_us",
        per_op_ns(
            spans,
            "http.registry_resolve_cached",
            effort.call_ops,
            |_| {
                black_box(registry.resolve(last).is_ok());
            },
        ) / 1e3,
    );

    if workload.kind == Kind::ServeHot {
        submit_p50 + poll_p50
    } else {
        percentile(&sorted(first_touch_us), 50.0)
    }
}
