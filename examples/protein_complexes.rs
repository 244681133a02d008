//! Protein-complex-style mining on a small interaction network.
//!
//! Quick [27] was evaluated on protein–protein interaction networks (a yeast
//! network with ~5k proteins); quasi-cliques there correspond to protein
//! complexes or functional modules. This example builds a synthetic
//! interaction network of that scale, compares the paper's fixed algorithm
//! (driven through `Session`) against the Quick-style baseline (no k-core
//! preprocessing, missed-result omissions), and prints the workload
//! difference that the k-core shrink of Theorem 2 buys — the paper's topic
//! (T1). It also observes the run's raw candidate reports through a
//! `QuasiCliqueSink`.
//!
//! ```text
//! cargo run --release -p qcm --example protein_complexes
//! ```

use qcm::prelude::*;
use qcm_sync::Arc;

fn main() -> Result<(), QcmError> {
    // ~5k proteins, sparse power-law interactions, plus a handful of planted
    // "complexes" of 8–12 proteins with high internal connectivity.
    let spec = PlantedGraphSpec {
        num_vertices: 4_900,
        background_avg_degree: 7.0,
        background_beta: 2.6,
        background_max_degree: 120.0,
        community_sizes: vec![12, 11, 10, 9, 8, 8],
        community_density: 0.9,
        seed: 17_201,
    };
    let (graph, complexes) = qcm::gen::plant_quasi_cliques(&spec);
    println!(
        "interaction network: {} proteins, {} interactions, {} planted complexes",
        graph.num_vertices(),
        graph.num_edges(),
        complexes.len()
    );

    let params = MiningParams::new(0.85, 8);
    println!(
        "mining maximal {}-quasi-cliques with ≥ {} proteins (k-core threshold k = {})\n",
        params.gamma,
        params.min_size,
        params.kcore_threshold()
    );
    let shared = Arc::new(graph.clone());

    // The paper's algorithm (all pruning rules + k-core preprocessing),
    // streaming each raw candidate into a sink as the search reports it.
    let session = Session::builder().params(params).build()?;
    let mut candidates: Vec<Vec<VertexId>> = Vec::new();
    let fixed = session.run_streaming(&shared, &mut candidates)?;
    let fixed_stats = *fixed.serial_stats().expect("serial backend");
    println!(
        "paper's algorithm : {:>4} complexes in {:>9.3?} — {} raw candidates streamed, \
         {} search nodes expanded",
        fixed.maximal.len(),
        fixed.elapsed,
        candidates.len(),
        fixed_stats.nodes_expanded
    );

    // Quick-style baseline: no k-core preprocessing, original result-missing
    // behaviour (kept as a library baseline, not a Session backend).
    let quick = quick_mine(&graph, params);
    println!(
        "Quick baseline    : {:>4} complexes in {:>9.3?} — no k-core shrink ({} vertices kept), \
         {} search nodes expanded",
        quick.maximal.len(),
        quick.elapsed,
        quick.kcore_vertices,
        quick.stats.nodes_expanded
    );

    let recovered = complexes
        .iter()
        .filter(|c| fixed.maximal.contains_superset_of(&c.members))
        .count();
    println!(
        "\nplanted complexes recovered by the paper's algorithm: {recovered}/{}",
        complexes.len()
    );
    let missed_by_quick: usize = fixed
        .maximal
        .iter()
        .filter(|s| !quick.maximal.contains(s))
        .count();
    println!(
        "maximal results reported by the fixed algorithm but absent from the Quick baseline: \
         {missed_by_quick}"
    );
    println!(
        "search-space ratio (Quick nodes / fixed nodes): {:.2}×",
        quick.stats.nodes_expanded as f64 / fixed_stats.nodes_expanded.max(1) as f64
    );
    Ok(())
}
