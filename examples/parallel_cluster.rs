//! Scaling quasi-clique mining on the simulated cluster.
//!
//! Reproduces the spirit of Table 5 of the paper interactively: the same
//! workload is mined with increasing thread counts (vertical scalability) and
//! machine counts (horizontal scalability) through one `Session` per shape,
//! printing the speedups plus the engine-level metrics that explain them
//! (task counts, decompositions, stealing, spilling).
//!
//! ```text
//! cargo run --release -p qcm --example parallel_cluster
//! ```

use qcm::prelude::*;
use qcm_sync::Arc;
use std::time::Duration;

fn main() -> Result<(), QcmError> {
    // The Enron stand-in: a mid-sized graph with a dense hard core that keeps
    // the cluster busy (see qcm-gen's dataset documentation).
    let spec = qcm::gen::datasets::enron();
    let dataset = spec.generate();
    let graph = Arc::new(dataset.graph.clone());
    println!(
        "dataset {}: {} vertices, {} edges — γ = {}, τ_size = {}, τ_split = {}, τ_time = {} ms\n",
        spec.name,
        graph.num_vertices(),
        graph.num_edges(),
        spec.gamma,
        spec.min_size,
        spec.tau_split,
        spec.tau_time_ms
    );

    let run = |machines: usize, threads: usize| -> Result<MiningReport, QcmError> {
        Session::builder()
            .gamma(spec.gamma)
            .min_size(spec.min_size)
            .backend(Backend::parallel(threads, machines))
            .tau_split(spec.tau_split)
            .tau_time(Duration::from_millis(spec.tau_time_ms))
            .build()?
            .run(&graph)
    };

    println!("vertical scalability (1 machine, varying threads):");
    let mut baseline = None;
    for threads in [1usize, 2, 4, 8] {
        let out = run(1, threads)?;
        let metrics = out.engine_metrics().expect("parallel backend");
        let secs = out.elapsed.as_secs_f64();
        let speedup = baseline.get_or_insert(secs);
        println!(
            "  {threads:>2} threads: {secs:>8.3} s  (speedup {:>4.2}×)  results={} tasks={} \
             decomposed={}",
            *speedup / secs,
            out.maximal.len(),
            metrics.tasks_processed,
            metrics.tasks_decomposed
        );
    }

    println!("\nhorizontal scalability (2 threads per machine, varying machines):");
    let mut baseline = None;
    for machines in [1usize, 2, 4, 8] {
        let out = run(machines, 2)?;
        let metrics = out.engine_metrics().expect("parallel backend");
        let secs = out.elapsed.as_secs_f64();
        let speedup = baseline.get_or_insert(secs);
        println!(
            "  {machines:>2} machines: {secs:>8.3} s  (speedup {:>4.2}×)  stolen={} remote \
             fetches={} cache hits={}",
            *speedup / secs,
            metrics.stolen_tasks,
            metrics.remote_fetches,
            metrics.cache_hits
        );
    }

    let out = run(2, 4)?;
    let metrics = out.engine_metrics().expect("parallel backend");
    println!(
        "\nworkload profile on 2×4: mining time {:?} vs materialisation {:?} (ratio {:.0}:1), \
         peak task memory {} KiB, spilled {} KiB",
        metrics.total_mining_time,
        metrics.total_materialization_time,
        metrics
            .mining_materialization_ratio()
            .unwrap_or(f64::INFINITY),
        metrics.peak_memory_bytes() / 1024,
        metrics.spill_bytes_written / 1024
    );
    Ok(())
}
