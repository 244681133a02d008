//! Synthetic stand-ins for the paper's evaluation datasets.
//!
//! Table 1 of the paper lists eight real graphs. They are not redistributable
//! inside this offline reproduction, so each gets a *synthetic stand-in* with
//! the same qualitative structure at a (documented) reduced scale:
//!
//! | Paper dataset | Paper \|V\| / \|E\|     | Stand-in \|V\| (approx) | Scale factor |
//! |---------------|--------------------------|--------------------------|--------------|
//! | CX_GSE1730    | 998 / 5,096              | ~1,000                   | 1×           |
//! | CX_GSE10158   | 1,621 / 7,079            | ~1,600                   | 1×           |
//! | Ca-GrQc       | 5,242 / 14,496           | ~5,200                   | 1×           |
//! | Enron         | 36,692 / 183,831         | ~8,000                   | ~4.5×        |
//! | DBLP          | 317,080 / 1,049,866      | ~20,000                  | ~16×         |
//! | Amazon        | 334,863 / 925,872        | ~20,000                  | ~17×         |
//! | Hyves         | 1,402,673 / 2,777,419    | ~40,000                  | ~35×         |
//! | YouTube       | 1,134,890 / 2,987,624    | ~40,000                  | ~28×         |
//!
//! Every stand-in combines (a) a power-law background whose average degree
//! matches the real graph, (b) planted dense communities sized so that the
//! paper's (γ, τ_size) parameters yield a non-trivial but bounded result
//! count, and (c) for the "slow" datasets (Enron, Hyves, YouTube) an extra
//! *hard core* — a moderately dense random block that survives k-core
//! pruning and creates the long-tailed task times of Figures 1–3.
//!
//! The mining parameters attached to each stand-in are the paper's Table 2
//! parameters, with τ_size reduced where the scaled background could no
//! longer support communities of the original size.

use crate::planted::{plant_into, PlantedCommunity};
use crate::powerlaw::power_law_graph;
use qcm_graph::{Graph, GraphBuilder, LocalGraph, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Full specification of a synthetic stand-in dataset, including the mining
/// parameters the experiment harness should use for it (mirroring Table 2).
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset name (matches the paper's Table 1 naming).
    pub name: &'static str,
    /// Number of vertices of the background graph.
    pub num_vertices: usize,
    /// Target average degree of the background.
    pub avg_degree: f64,
    /// Power-law exponent of the background degree distribution.
    pub beta: f64,
    /// Cap on expected background degree.
    pub max_degree: f64,
    /// Sizes of planted dense communities.
    pub planted_sizes: Vec<usize>,
    /// Internal density of planted communities.
    pub planted_density: f64,
    /// Optional hard core: (number of vertices, edge probability). Creates the
    /// expensive, long-running tasks of Figures 1–3.
    pub hard_core: Option<(usize, f64)>,
    /// Minimum degree threshold γ used by the paper for this dataset.
    pub gamma: f64,
    /// Minimum size threshold τ_size used by the paper (scaled if needed).
    pub min_size: usize,
    /// Task-split threshold τ_split from Table 2.
    pub tau_split: usize,
    /// Timeout τ_time from Table 2, in milliseconds (scaled: the paper's
    /// seconds become milliseconds at our reduced dataset scale).
    pub tau_time_ms: u64,
    /// RNG seed (fixed per dataset for reproducibility).
    pub seed: u64,
}

/// A generated stand-in dataset: the graph, the planted ground-truth
/// communities, and the spec it was generated from.
#[derive(Clone, Debug)]
pub struct SyntheticDataset {
    /// The generation spec (also carries the mining parameters).
    pub spec: DatasetSpec,
    /// The generated graph.
    pub graph: Graph,
    /// Ground-truth planted communities (each is a γ⁺-dense block).
    pub planted: Vec<PlantedCommunity>,
}

impl DatasetSpec {
    /// Generates the dataset from this spec.
    pub fn generate(&self) -> SyntheticDataset {
        let background = power_law_graph(
            self.num_vertices,
            self.avg_degree,
            self.beta,
            self.max_degree,
            self.seed,
        );
        let background = match self.hard_core {
            Some((size, p)) => overlay_hard_core(&background, size, p, self.seed ^ 0xABCD),
            None => background,
        };
        let (graph, planted) = plant_into(
            &background,
            &self.planted_sizes,
            self.planted_density,
            self.seed ^ 0x5eed,
        );
        SyntheticDataset {
            spec: self.clone(),
            graph,
            planted,
        }
    }
}

/// Overlays a moderately dense `G(size, p)` block onto randomly chosen
/// vertices of `background`. The block's density is chosen *below* the mining
/// γ so it produces few results but a large surviving search space — the
/// source of the paper's expensive tasks.
fn overlay_hard_core(background: &Graph, size: usize, p: f64, seed: u64) -> Graph {
    let n = background.num_vertices();
    let size = size.min(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<u32> = (0..n as u32).collect();
    pool.shuffle(&mut rng);
    let members = &pool[..size];
    let mut builder = GraphBuilder::with_capacity(n, background.num_edges() + size * size / 4);
    builder.set_min_vertices(n);
    for (u, v) in background.edges() {
        builder.add_edge(u, v);
    }
    for i in 0..size {
        for j in (i + 1)..size {
            if rng.gen_bool(p) {
                builder.add_edge_raw(members[i], members[j]);
            }
        }
    }
    builder.build()
}

/// Returns the vertices of the hard core of a dataset, if any, for tests that
/// need to inspect it. (Re-derives the same shuffled prefix as
/// `overlay_hard_core`.)
pub fn hard_core_members(spec: &DatasetSpec) -> Option<Vec<VertexId>> {
    let (size, _) = spec.hard_core?;
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xABCD);
    let mut pool: Vec<u32> = (0..spec.num_vertices as u32).collect();
    pool.shuffle(&mut rng);
    let mut members: Vec<VertexId> = pool[..size.min(spec.num_vertices)]
        .iter()
        .map(|&v| VertexId::new(v))
        .collect();
    members.sort_unstable();
    Some(members)
}

/// CX_GSE1730 stand-in: small gene-coexpression-like network, γ=0.9, τ_size≈30
/// in the paper; the stand-in plants communities of ~size 12 and mines with
/// τ_size=10 (the 1× scale keeps |V| but the synthetic background cannot
/// support 30-vertex 0.9-dense blocks without dominating the graph).
pub fn cx_gse1730() -> DatasetSpec {
    DatasetSpec {
        name: "CX_GSE1730",
        num_vertices: 1_000,
        avg_degree: 10.2,
        beta: 2.6,
        max_degree: 90.0,
        planted_sizes: vec![12, 12, 11, 10],
        planted_density: 0.95,
        hard_core: None,
        gamma: 0.9,
        min_size: 10,
        tau_split: 200,
        tau_time_ms: 20,
        seed: 1730,
    }
}

/// CX_GSE10158 stand-in: γ=0.8, paper τ_size=28 → stand-in τ_size=10.
pub fn cx_gse10158() -> DatasetSpec {
    DatasetSpec {
        name: "CX_GSE10158",
        num_vertices: 1_600,
        avg_degree: 8.8,
        beta: 2.6,
        max_degree: 110.0,
        planted_sizes: vec![13, 12, 11, 10, 10],
        planted_density: 0.88,
        hard_core: None,
        gamma: 0.8,
        min_size: 10,
        tau_split: 500,
        tau_time_ms: 20,
        seed: 10158,
    }
}

/// Ca-GrQc stand-in: collaboration network, γ=0.8, τ_size=10 (paper values).
pub fn ca_grqc() -> DatasetSpec {
    DatasetSpec {
        name: "Ca-GrQc",
        num_vertices: 5_200,
        avg_degree: 5.5,
        beta: 2.4,
        max_degree: 85.0,
        planted_sizes: vec![14, 12, 12, 11, 10, 10],
        planted_density: 0.85,
        hard_core: None,
        gamma: 0.8,
        min_size: 10,
        tau_split: 1_000,
        tau_time_ms: 10,
        seed: 14496,
    }
}

/// Enron stand-in: email network with a dense core, γ=0.9, paper τ_size=23 →
/// stand-in τ_size=12. The hard core reproduces Enron's expensive tasks.
pub fn enron() -> DatasetSpec {
    DatasetSpec {
        name: "Enron",
        num_vertices: 8_000,
        avg_degree: 10.0,
        beta: 2.2,
        max_degree: 140.0,
        planted_sizes: vec![15, 14, 13, 12, 12],
        planted_density: 0.95,
        hard_core: Some((42, 0.62)),
        gamma: 0.9,
        min_size: 12,
        tau_split: 100,
        tau_time_ms: 1,
        seed: 36692,
    }
}

/// DBLP stand-in: γ=0.8, paper τ_size=70 → stand-in τ_size=14 (collaboration
/// cliques scale with the reduced graph).
pub fn dblp() -> DatasetSpec {
    DatasetSpec {
        name: "DBLP",
        num_vertices: 20_000,
        avg_degree: 6.6,
        beta: 2.6,
        max_degree: 120.0,
        planted_sizes: vec![16, 15, 14],
        planted_density: 0.9,
        hard_core: None,
        gamma: 0.8,
        min_size: 14,
        tau_split: 100,
        tau_time_ms: 10,
        seed: 317080,
    }
}

/// Amazon stand-in: co-purchase network, γ=0.5, τ_size=12 (paper values).
pub fn amazon() -> DatasetSpec {
    DatasetSpec {
        name: "Amazon",
        num_vertices: 20_000,
        avg_degree: 5.5,
        beta: 2.9,
        max_degree: 60.0,
        planted_sizes: vec![13, 12, 12],
        planted_density: 0.6,
        hard_core: None,
        gamma: 0.5,
        min_size: 12,
        tau_split: 500,
        tau_time_ms: 10,
        seed: 334863,
    }
}

/// Hyves stand-in: social network, γ=0.9, paper τ_size=22 → stand-in
/// τ_size=12; hard core reproduces the "hard cores so expensive to mine"
/// observation of Table 4.
pub fn hyves() -> DatasetSpec {
    DatasetSpec {
        name: "Hyves",
        num_vertices: 40_000,
        avg_degree: 4.0,
        beta: 2.3,
        max_degree: 200.0,
        planted_sizes: vec![15, 14, 13, 12, 12, 12],
        planted_density: 0.95,
        hard_core: Some((42, 0.64)),
        gamma: 0.9,
        min_size: 12,
        tau_split: 50,
        tau_time_ms: 1,
        seed: 1402673,
    }
}

/// YouTube stand-in: the paper's hardest dataset (3.12 h on 16 machines),
/// γ=0.9, paper τ_size=18 → stand-in τ_size=12; the hard core is larger than
/// Hyves' so YouTube remains the slowest stand-in.
pub fn youtube() -> DatasetSpec {
    DatasetSpec {
        name: "YouTube",
        num_vertices: 40_000,
        avg_degree: 5.3,
        beta: 2.2,
        max_degree: 220.0,
        planted_sizes: vec![16, 14, 13, 12, 12],
        planted_density: 0.95,
        hard_core: Some((48, 0.64)),
        gamma: 0.9,
        min_size: 12,
        tau_split: 100,
        tau_time_ms: 1,
        seed: 1134890,
    }
}

/// All eight stand-in specs in the order of Table 1.
pub fn all_datasets() -> Vec<DatasetSpec> {
    vec![
        cx_gse1730(),
        cx_gse10158(),
        ca_grqc(),
        enron(),
        dblp(),
        amazon(),
        hyves(),
        youtube(),
    ]
}

/// The spec behind [`tiny_test_dataset`]: a 200-vertex background with two
/// planted communities; mining finishes in milliseconds. Exposed separately
/// so the CLI (`qcm generate --dataset tiny-test`) and CI smoke scripts can
/// materialise it to disk.
pub fn tiny_test_spec(seed: u64) -> DatasetSpec {
    DatasetSpec {
        name: "tiny-test",
        num_vertices: 200,
        avg_degree: 5.0,
        beta: 2.5,
        max_degree: 30.0,
        planted_sizes: vec![8, 7],
        planted_density: 0.95,
        hard_core: None,
        gamma: 0.8,
        min_size: 6,
        tau_split: 20,
        tau_time_ms: 5,
        seed,
    }
}

/// A tiny dataset for unit/integration tests (see [`tiny_test_spec`]).
pub fn tiny_test_dataset(seed: u64) -> SyntheticDataset {
    tiny_test_spec(seed).generate()
}

/// The illustrative graph of Figure 4 of the paper, its vertices a–i as
/// 0–8: the dense region {a, b, c, d, e} and the periphery f–i.
pub fn figure4() -> Graph {
    let edges = [
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 4),
        (1, 2),
        (1, 4),
        (2, 3),
        (2, 4),
        (3, 4),
        (1, 5),
        (5, 6),
        (2, 6),
        (3, 7),
        (7, 8),
        (3, 8),
    ];
    Graph::from_edges(9, edges).expect("the edges name vertices 0–8")
}

/// [`figure4`] as a task graph over all its vertices, local index = id.
pub fn figure4_local() -> LocalGraph {
    let g = figure4();
    LocalGraph::from_induced(&g, &g.vertices().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_graph::kcore::k_core_vertices;

    #[test]
    fn all_specs_are_listed_in_table1_order() {
        let names: Vec<&str> = all_datasets().iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            vec![
                "CX_GSE1730",
                "CX_GSE10158",
                "Ca-GrQc",
                "Enron",
                "DBLP",
                "Amazon",
                "Hyves",
                "YouTube"
            ]
        );
    }

    #[test]
    fn small_datasets_generate_with_expected_sizes() {
        for spec in [cx_gse1730(), cx_gse10158()] {
            let ds = spec.generate();
            assert_eq!(ds.graph.num_vertices(), spec.num_vertices);
            assert!(ds.graph.num_edges() > spec.num_vertices); // denser than a tree
            assert_eq!(ds.planted.len(), spec.planted_sizes.len());
            ds.graph.validate().unwrap();
        }
    }

    #[test]
    fn planted_blocks_survive_kcore_pruning() {
        // The k-core shrink with k = ceil(gamma*(min_size-1)) must retain every
        // planted block, otherwise the miner could never report them.
        let spec = cx_gse1730();
        let ds = spec.generate();
        let k = (spec.gamma * (spec.min_size as f64 - 1.0)).ceil() as usize;
        let core = k_core_vertices(&ds.graph, k);
        for community in &ds.planted {
            for &v in &community.members {
                assert!(
                    core.binary_search(&v).is_ok(),
                    "planted vertex {v} was peeled by the {k}-core"
                );
            }
        }
    }

    #[test]
    fn hard_core_members_are_reproducible() {
        let spec = enron();
        let a = hard_core_members(&spec).unwrap();
        let b = hard_core_members(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), spec.hard_core.unwrap().0);
        assert!(hard_core_members(&cx_gse1730()).is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = cx_gse10158().generate();
        let b = cx_gse10158().generate();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.planted, b.planted);
    }

    #[test]
    fn tiny_test_dataset_is_fast_and_valid() {
        let ds = tiny_test_dataset(1);
        assert_eq!(ds.graph.num_vertices(), 200);
        assert_eq!(ds.planted.len(), 2);
        ds.graph.validate().unwrap();
    }
}
