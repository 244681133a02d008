//! Shared experiment runner: generate a stand-in dataset, mine it on the
//! simulated cluster, and collect the columns the paper's tables report.

use qcm_core::MiningParams;
use qcm_engine::{DecompositionStrategy, EngineConfig, EngineMetrics, ParallelMiner};
use qcm_gen::DatasetSpec;
use qcm_sync::Arc;
use std::time::Duration;

/// Overrides applied on top of a dataset's default mining/engine parameters.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Number of simulated machines.
    pub machines: usize,
    /// Mining threads per machine.
    pub threads_per_machine: usize,
    /// Override of the dataset's τ_split (None keeps the dataset default).
    pub tau_split: Option<usize>,
    /// Override of the dataset's τ_time (None keeps the dataset default).
    pub tau_time: Option<Duration>,
    /// Decomposition strategy.
    pub strategy: DecompositionStrategy,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            machines: 1,
            threads_per_machine: default_threads(),
            tau_split: None,
            tau_time: None,
            strategy: DecompositionStrategy::TimeDelayed,
        }
    }
}

/// Sensible default thread count for harness runs: physical parallelism capped
/// at 8 so laptop runs stay responsive.
pub fn default_threads() -> usize {
    qcm_sync::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

/// The measured columns of one dataset run (one row of Table 2).
#[derive(Clone, Debug)]
pub struct DatasetRun {
    /// Dataset name.
    pub name: String,
    /// γ used.
    pub gamma: f64,
    /// τ_size used.
    pub min_size: usize,
    /// τ_split used.
    pub tau_split: usize,
    /// τ_time used.
    pub tau_time: Duration,
    /// Graph size.
    pub num_vertices: usize,
    /// Graph size.
    pub num_edges: usize,
    /// Wall-clock mining time.
    pub elapsed: Duration,
    /// Peak in-memory task bytes (the RAM column analogue).
    pub peak_memory_bytes: u64,
    /// Bytes spilled to disk (the Disk column analogue).
    pub disk_bytes: u64,
    /// Number of maximal quasi-cliques after post-processing.
    pub maximal_results: usize,
    /// Number of raw reports before post-processing.
    pub raw_results: u64,
    /// Full engine metrics (for the figures).
    pub metrics: EngineMetrics,
}

/// Generates the dataset described by `spec` and mines it with the given
/// options, returning the measured row.
pub fn run_dataset(spec: &DatasetSpec, options: &RunOptions) -> DatasetRun {
    let dataset = spec.generate();
    let graph = Arc::new(dataset.graph);
    let params = MiningParams::new(spec.gamma, spec.min_size);
    let tau_split = options.tau_split.unwrap_or(spec.tau_split);
    let tau_time = options
        .tau_time
        .unwrap_or(Duration::from_millis(spec.tau_time_ms));
    let config = EngineConfig::cluster(options.machines, options.threads_per_machine);
    let miner = ParallelMiner::new(params, config)
        .with_decomposition(tau_split, tau_time)
        .with_strategy(options.strategy);
    let output = miner.mine(graph.clone());
    DatasetRun {
        name: spec.name.to_string(),
        gamma: spec.gamma,
        min_size: spec.min_size,
        tau_split,
        tau_time,
        num_vertices: graph.num_vertices(),
        num_edges: graph.num_edges(),
        elapsed: output.metrics.elapsed,
        peak_memory_bytes: output.metrics.peak_memory_bytes() + graph.memory_bytes() as u64,
        disk_bytes: output.metrics.spill_bytes_written,
        maximal_results: output.maximal.len(),
        raw_results: output.raw_reported,
        metrics: output.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaled;

    #[test]
    fn run_dataset_produces_consistent_row() {
        let spec = scaled::tiny(&qcm_gen::datasets::cx_gse1730());
        let run = run_dataset(&spec, &RunOptions::default());
        assert_eq!(run.name, "CX_GSE1730");
        assert_eq!(run.num_vertices, spec.num_vertices);
        assert!(run.maximal_results as u64 <= run.raw_results);
        assert!(run.elapsed.as_secs() < 120);
    }

    #[test]
    fn options_override_hyperparameters() {
        let spec = scaled::tiny(&qcm_gen::datasets::amazon());
        let options = RunOptions {
            tau_split: Some(7),
            tau_time: Some(Duration::from_millis(3)),
            threads_per_machine: 2,
            ..Default::default()
        };
        let run = run_dataset(&spec, &options);
        assert_eq!(run.tau_split, 7);
        assert_eq!(run.tau_time, Duration::from_millis(3));
    }
}
