//! Hard-core calibration tool.
//!
//! The stand-in datasets embed a "hard core" — a moderately dense random block
//! that survives k-core pruning and generates the paper's long-running tasks
//! (Figures 1–3). This tool measures how expensive a `G(size, p)` block is to
//! mine at a given (γ, τ_size) so the dataset specs can be tuned to produce a
//! pronounced but bounded tail:
//!
//! ```text
//! cargo run --release -p qcm-bench --bin calibrate -- [gamma] [min_size]
//! ```

use qcm_core::{MiningParams, SerialMiner};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `calibrate dataset <name>` profiles the top root tasks of one stand-in.
    if args.first().map(String::as_str) == Some("dataset") {
        let name = args.get(1).cloned().unwrap_or_else(|| "Enron".to_string());
        profile_dataset(&name);
        return;
    }
    let gamma: f64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(0.9);
    let min_size: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(12);
    let params = MiningParams::new(gamma, min_size);
    println!("hard-core cost at gamma={gamma}, min_size={min_size} (serial miner):");
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>10}",
        "size", "p", "time (s)", "nodes", "results"
    );
    for &size in &[25usize, 30, 35, 40, 45] {
        for &p in &[0.45f64, 0.5, 0.55, 0.6, 0.65] {
            let graph = qcm_gen::gnp(size, p, (size as u64) * 1000 + (p * 100.0) as u64);
            let start = Instant::now();
            let out = SerialMiner::new(params).mine(&graph);
            let elapsed = start.elapsed();
            println!(
                "{:>6} {:>6.2} {:>12.3} {:>12} {:>10}",
                size,
                p,
                elapsed.as_secs_f64(),
                out.stats.nodes_expanded,
                out.maximal.len()
            );
            if elapsed.as_secs_f64() > 30.0 {
                println!("       (skipping denser settings for this size)");
                break;
            }
        }
    }
}

/// Prints the most expensive root tasks of one stand-in dataset: the data
/// behind Figures 1–3 and the knob for tuning the hard-core parameters.
fn profile_dataset(name: &str) {
    let spec = qcm_gen::datasets::all_datasets()
        .into_iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
        .unwrap_or_else(|| panic!("unknown dataset {name}"));
    let run = qcm_bench::run_dataset(&spec, &qcm_bench::RunOptions::default());
    println!(
        "{}: job {:?}, {} tasks ({} decomposed), mining {:?}, materialization {:?}",
        spec.name,
        run.elapsed,
        run.metrics.tasks_processed,
        run.metrics.tasks_decomposed,
        run.metrics.total_mining_time,
        run.metrics.total_materialization_time
    );
    println!("top root tasks by total time:");
    for (root, time, size) in run.metrics.per_root_totals().into_iter().take(10) {
        println!("  root {root:>8}  total {time:>12?}  max subgraph |V| {size}");
    }
    println!("top individual task records:");
    for rec in run.metrics.top_k_task_times(10) {
        println!(
            "  root {}  elapsed {:>12?}  subgraph |V| {:>6}  mining {:?} materialization {:?}",
            rec.root,
            rec.elapsed,
            rec.subgraph_size,
            rec.timings.mining,
            rec.timings.materialization
        );
    }
}
