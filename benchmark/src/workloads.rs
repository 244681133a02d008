//! The six workloads and their set-up.
//!
//! Names are stable: later issues cite them. README.md says why each
//! exists; `BENCHMARK.json` carries the one-line version.

use qcm::gen::{datasets, DatasetSpec};
use qcm::graph::io;
use qcm::prelude::{Backend, MiningParams, MiningStats, SerialMiner, Session};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What one round of a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// read → prepare → `Backend::Serial` run → write.
    Serial,
    /// read → prepare → engine run on `machines × threads` → write.
    Engine { threads: usize, machines: usize },
    /// A fresh HTTP server mining every job: each job names its own graph.
    ServeCold,
    /// A fresh HTTP server with every query already in the result cache.
    ServeHot,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    base: fn() -> DatasetSpec,
}

/// DBLP's shape at 400 000 vertices: no hard core, so the search is near
/// zero and the wall time is parse, k-core and per-task overhead.
fn sparse_wide() -> DatasetSpec {
    DatasetSpec {
        num_vertices: 400_000,
        ..datasets::dblp()
    }
}

/// Load is sized for two cores: mining uses at most 2 threads, serving 2
/// closed-loop connections. `BENCHMARK.json` gates all but `serve_hot_small`
/// (README.md, "The workload that is not gated").
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "mine_hubs_serial",
        kind: Kind::Serial,
        base: datasets::enron,
    },
    Workload {
        name: "mine_skew_parallel",
        kind: Kind::Engine {
            threads: 2,
            machines: 1,
        },
        base: datasets::youtube,
    },
    Workload {
        name: "mine_skew_cluster",
        kind: Kind::Engine {
            threads: 1,
            machines: 2,
        },
        base: datasets::youtube,
    },
    Workload {
        name: "mine_sparse_wide",
        kind: Kind::Engine {
            threads: 2,
            machines: 1,
        },
        base: sparse_wide,
    },
    Workload {
        name: "serve_cold_jobs",
        kind: Kind::ServeCold,
        base: datasets::cx_gse10158,
    },
    Workload {
        name: "serve_hot_small",
        kind: Kind::ServeHot,
        base: datasets::cx_gse10158,
    },
];

/// Closed-loop connections of a serve round.
pub const CONNECTIONS: usize = 2;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn is_serve(&self) -> bool {
        matches!(self.kind, Kind::ServeCold | Kind::ServeHot)
    }

    /// Distinct graph files the workload reads. The cold serve workload
    /// needs more than the registry's path cache holds (64).
    pub fn graph_count(&self, quick: bool) -> usize {
        match (self.kind, quick) {
            (Kind::ServeCold, false) => 100,
            (Kind::ServeCold, true) => 6,
            (Kind::ServeHot, false) => 8,
            (Kind::ServeHot, true) => 2,
            _ => 1,
        }
    }

    /// Jobs each connection sends in one serve round (a mining round is one
    /// job). Hot rounds are short so that a run has many: with four busy
    /// threads on two cores few rounds are free of scheduler noise, and the
    /// reported value is the best round.
    pub fn jobs_per_connection(&self, quick: bool) -> usize {
        match (self.kind, quick) {
            (Kind::ServeCold, _) => self.graph_count(quick) / CONNECTIONS,
            (Kind::ServeHot, false) => 2_000,
            (Kind::ServeHot, true) => 300,
            _ => 1,
        }
    }

    /// The spec of graph `index`. `structure_seed` is XORed into the
    /// generator seed: it moves the structure (and with it the search
    /// cost), which `--seed` deliberately does not.
    pub fn spec(&self, index: usize, quick: bool, structure_seed: u64) -> DatasetSpec {
        let mut spec = (self.base)();
        if quick {
            spec = qcm_bench::scaled::tiny(&spec);
        }
        // Hot and cold graphs are disjoint families of the same shape.
        let family = if self.kind == Kind::ServeHot {
            1u64 << 40
        } else {
            0
        };
        spec.seed ^= structure_seed ^ family ^ ((index as u64) << 20);
        spec
    }

    /// The session a mining round runs; `single_worker` puts the engine on
    /// one machine with one thread (the traced pass's scaling point).
    pub fn session(&self, spec: &DatasetSpec, single_worker: bool) -> Session {
        let backend = match self.kind {
            Kind::Engine { .. } if single_worker => Backend::parallel(1, 1),
            Kind::Engine { threads, machines } => Backend::parallel(threads, machines),
            _ => Backend::Serial,
        };
        Session::builder()
            .gamma(spec.gamma)
            .min_size(spec.min_size)
            .tau_split(spec.tau_split)
            .tau_time(Duration::from_millis(spec.tau_time_ms))
            .backend(backend)
            .build()
            .expect("dataset specs carry valid mining parameters")
    }
}

/// File name of a workload's graph `index` inside its directory.
pub fn graph_file(index: usize) -> String {
    format!("g-{index:03}.txt")
}

/// One input graph on disk with its `SerialMiner` reference.
pub struct GraphInput {
    /// File name inside the workload's directory.
    pub file: String,
    pub gamma: f64,
    pub min_size: usize,
    /// The reference maximal sets, each sorted, the list sorted.
    pub reference: Vec<Vec<u32>>,
    pub reference_raw: u64,
    pub reference_stats: MiningStats,
    pub reference_s: f64,
}

/// A workload's inputs, ready for rounds.
pub struct Prepared {
    pub dir: PathBuf,
    pub graphs: Vec<GraphInput>,
}

/// Generates the workload's graphs, writes them as edge lists in
/// seed-shuffled order and mines each with `SerialMiner` for the reference.
///
/// `seed` shuffles the *presentation* — edge order, edge orientation, and
/// (in serve rounds) job order — and leaves the structure alone: hard-core
/// search cost varies by ±12 % between structures of one spec, which would
/// drown a 10 % bound in seed-to-seed spread.
pub fn set_up(
    workload: &Workload,
    dir: &Path,
    seed: u64,
    structure_seed: u64,
    quick: bool,
) -> Prepared {
    std::fs::create_dir_all(dir).expect("creating the workload directory");
    let graphs = (0..workload.graph_count(quick))
        .map(|index| {
            let spec = workload.spec(index, quick, structure_seed);
            let file = graph_file(index);
            let path = dir.join(&file);
            write_shuffled(&spec.generate().graph, &path, seed ^ ((index as u64) << 32));
            // The reader compacts vertex ids, so the reference is mined on
            // the graph as a program reading the file sees it.
            let graph = io::read_edge_list_file(&path).expect("reading back the edge list");
            let started = Instant::now();
            let output =
                SerialMiner::new(MiningParams::new(spec.gamma, spec.min_size)).mine(&graph);
            GraphInput {
                file,
                gamma: spec.gamma,
                min_size: spec.min_size,
                reference: plain(output.maximal.into_sorted_vec()),
                reference_raw: output.raw_reported,
                reference_stats: output.stats,
                reference_s: started.elapsed().as_secs_f64(),
            }
        })
        .collect();
    Prepared {
        dir: dir.to_path_buf(),
        graphs,
    }
}

/// Result sets as plain integers (what a result file holds).
pub fn plain(sets: Vec<Vec<qcm::graph::VertexId>>) -> Vec<Vec<u32>> {
    sets.into_iter()
        .map(|set| set.into_iter().map(|v| v.raw()).collect())
        .collect()
}

fn write_shuffled(graph: &qcm::graph::Graph, path: &Path, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = graph.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
    edges.shuffle(&mut rng);
    let file = std::fs::File::create(path).expect("creating the edge list");
    let mut out = BufWriter::new(file);
    for (u, v) in edges {
        let (a, b) = if rng.gen_bool(0.5) { (u, v) } else { (v, u) };
        writeln!(out, "{a}\t{b}").expect("writing the edge list");
    }
    out.flush().expect("flushing the edge list");
}

/// Writes result sets one per line, members space-separated (the format of
/// `qcm mine --output`).
pub fn write_results(sets: &[Vec<u32>], path: &Path) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for set in sets {
        let ids: Vec<String> = set.iter().map(u32::to_string).collect();
        writeln!(out, "{}", ids.join(" "))?;
    }
    out.flush()
}

/// Reads what [`write_results`] wrote; `None` if a token is not a number.
pub fn read_results(path: &Path) -> Option<Vec<Vec<u32>>> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .map(|line| {
            line.split_whitespace()
                .map(|token| token.parse().ok())
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).unwrap().name, w.name);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn seed_changes_the_file_but_not_the_graph() {
        let dir = std::env::temp_dir().join(format!("qcm_benchmark_wl_{}", std::process::id()));
        let w = find("mine_hubs_serial").unwrap();
        let a = set_up(w, &dir.join("a"), 1, 0, true);
        let b = set_up(w, &dir.join("b"), 2, 0, true);
        let text = |p: &Prepared| std::fs::read_to_string(p.dir.join(&p.graphs[0].file)).unwrap();
        assert_ne!(text(&a), text(&b));
        assert_eq!(a.graphs[0].reference, b.graphs[0].reference);
        assert_eq!(a.graphs[0].reference_stats, b.graphs[0].reference_stats);
        let c = set_up(w, &dir.join("c"), 1, 5, true);
        assert_ne!(a.graphs[0].reference_stats, c.graphs[0].reference_stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn results_round_trip() {
        let path = std::env::temp_dir().join(format!("qcm_benchmark_res_{}", std::process::id()));
        let sets = vec![vec![1, 2, 3], vec![4, 5]];
        write_results(&sets, &path).unwrap();
        assert_eq!(read_results(&path).unwrap(), sets);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cold_graphs_outnumber_the_path_cache() {
        assert!(find("serve_cold_jobs").unwrap().graph_count(false) > 64);
    }
}
