//! Experiment harness regenerating every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p qcm-bench --bin experiments -- <experiment> [--quick]
//! ```
//!
//! where `<experiment>` is one of `table1`, `table2`, `table3`, `table4`,
//! `table5a`, `table5b`, `table6`, `fig1`, `fig2`, `fig3`, `ablation`, or
//! `all`. With `--quick` the reduced (benchmark-scale) datasets are used.
//!
//! Absolute numbers are not comparable with the paper (synthetic stand-in
//! datasets at reduced scale, a simulated cluster, different hardware); the
//! shapes — which dataset is hardest, how time responds to τ_time/τ_split,
//! near-linear thread/machine scaling, mining ≫ materialisation — are the
//! reproduction targets.

use qcm_bench::report::{mib, seconds, Table};
use qcm_bench::runner::{default_threads, run_dataset, RunOptions};
use qcm_bench::scaled;
use qcm_core::{MiningParams, PruneConfig, SerialMiner};
use qcm_engine::EngineConfig;
use qcm_gen::datasets;
use qcm_gen::DatasetSpec;
use qcm_graph::GraphStats;
use qcm_parallel::{DecompositionStrategy, ParallelMiner};
use qcm_sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let experiment = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());

    let specs: Vec<DatasetSpec> = datasets::all_datasets()
        .into_iter()
        .map(|s| if quick { scaled::bench_scale(&s) } else { s })
        .collect();

    match experiment.as_str() {
        "table1" => table1(&specs),
        "table2" => table2(&specs),
        "table3" => table3_4(&specs, "CX_GSE10158", quick),
        "table4" => table3_4(&specs, "Hyves", quick),
        "table5a" => table5(&specs, true),
        "table5b" => table5(&specs, false),
        "table6" => table6(&specs),
        "fig1" => figures(&specs, Figure::AllTasks),
        "fig2" => figures(&specs, Figure::Top100),
        "fig3" => figures(&specs, Figure::TimeVsSize),
        "ablation" => ablation(&specs),
        "all" => {
            table1(&specs);
            table2(&specs);
            table3_4(&specs, "CX_GSE10158", quick);
            table3_4(&specs, "Hyves", quick);
            table5(&specs, true);
            table5(&specs, false);
            table6(&specs);
            figures(&specs, Figure::AllTasks);
            figures(&specs, Figure::Top100);
            figures(&specs, Figure::TimeVsSize);
            ablation(&specs);
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; expected table1|table2|table3|table4|table5a|\
                 table5b|table6|fig1|fig2|fig3|ablation|all"
            );
            std::process::exit(2);
        }
    }
}

fn spec_by_name<'a>(specs: &'a [DatasetSpec], name: &str) -> &'a DatasetSpec {
    specs
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .unwrap_or_else(|| panic!("dataset {name} not found"))
}

/// Table 1: dataset sizes.
fn table1(specs: &[DatasetSpec]) {
    let mut table = Table::new(
        "Table 1: Graph Datasets (synthetic stand-ins)",
        &["Data", "|V|", "|E|", "max deg", "degeneracy"],
    );
    for spec in specs {
        let ds = spec.generate();
        let stats = GraphStats::compute(&ds.graph);
        table.add_row(vec![
            spec.name.to_string(),
            stats.num_vertices.to_string(),
            stats.num_edges.to_string(),
            stats.max_degree.to_string(),
            stats.degeneracy.to_string(),
        ]);
    }
    table.print();
}

/// Table 2: per-dataset mining results with the paper's parameter choices.
fn table2(specs: &[DatasetSpec]) {
    let mut table = Table::new(
        "Table 2: Results on All Datasets",
        &[
            "Data",
            "tau_size",
            "gamma",
            "tau_split",
            "tau_time(ms)",
            "Time (sec)",
            "RAM (MiB)",
            "Disk (MiB)",
            "Result #",
        ],
    );
    for spec in specs {
        eprintln!("[table2] mining {} ...", spec.name);
        let run = run_dataset(spec, &RunOptions::default());
        eprintln!(
            "[table2] {} done in {:.3} s ({} results)",
            run.name,
            run.elapsed.as_secs_f64(),
            run.maximal_results
        );
        table.add_row(vec![
            run.name.clone(),
            run.min_size.to_string(),
            format!("{}", run.gamma),
            run.tau_split.to_string(),
            run.tau_time.as_millis().to_string(),
            seconds(run.elapsed),
            mib(run.peak_memory_bytes),
            mib(run.disk_bytes),
            run.maximal_results.to_string(),
        ]);
    }
    table.print();
}

/// Tables 3 and 4: the (τ_time × τ_split) hyperparameter grid on one dataset.
fn table3_4(specs: &[DatasetSpec], dataset: &str, quick: bool) {
    let spec = spec_by_name(specs, dataset);
    let tau_times_ms: Vec<u64> = if quick {
        vec![20, 5, 1, 0]
    } else {
        vec![50, 20, 10, 5, 1, 0]
    };
    let tau_splits: Vec<usize> = if quick {
        vec![500, 100, 50]
    } else {
        vec![1000, 500, 200, 100, 50]
    };
    let header: Vec<String> = std::iter::once("tau_time\\tau_split".to_string())
        .chain(tau_splits.iter().map(|s| s.to_string()))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let title = if dataset == "Hyves" {
        "Table 4"
    } else {
        "Table 3"
    };
    let mut time_table = Table::new(
        format!("{title}(a): Running Time (seconds) on {dataset}"),
        &header_refs,
    );
    let mut result_table = Table::new(
        format!("{title}(b): Number of Quasi-Cliques Mined on {dataset}"),
        &header_refs,
    );
    for &tau_time in &tau_times_ms {
        let mut time_row = vec![format!("{tau_time} ms")];
        let mut result_row = vec![format!("{tau_time} ms")];
        for &tau_split in &tau_splits {
            let options = RunOptions {
                tau_split: Some(tau_split),
                tau_time: Some(Duration::from_millis(tau_time)),
                ..Default::default()
            };
            let run = run_dataset(spec, &options);
            time_row.push(seconds(run.elapsed));
            result_row.push(run.raw_results.to_string());
        }
        time_table.add_row(time_row);
        result_table.add_row(result_row);
    }
    time_table.print();
    result_table.print();
}

/// Table 5: vertical (threads) and horizontal (machines) scalability on Enron.
fn table5(specs: &[DatasetSpec], vertical: bool) {
    let spec = spec_by_name(specs, "Enron");
    // Per-task times are measured on a serial (1-thread) run and replayed on
    // N virtual workers with greedy list scheduling: on a host with fewer
    // physical cores than N, measured wall time cannot show the paper's
    // speedups, but the simulated makespan exposes whether the decomposition
    // produced tasks balanced enough to keep N workers busy (which is what
    // Table 5 of the paper demonstrates). Wall times of the actual runs are
    // reported alongside for transparency.
    let serial = run_dataset(
        spec,
        &RunOptions {
            machines: 1,
            threads_per_machine: 1,
            ..Default::default()
        },
    );
    let base_makespan = serial.metrics.simulated_makespan(1).as_secs_f64();
    if vertical {
        let mut table = Table::new(
            "Table 5(a): Vertical Scalability on Enron (1 machine)",
            &[
                "Thread #",
                "Sim. makespan (sec)",
                "Sim. speedup",
                "Wall time (sec)",
                "Utilisation",
                "RAM (MiB)",
                "Disk (MiB)",
            ],
        );
        for threads in [1usize, 2, 4, 8] {
            let options = RunOptions {
                machines: 1,
                threads_per_machine: threads,
                ..Default::default()
            };
            let run = run_dataset(spec, &options);
            let makespan = serial.metrics.simulated_makespan(threads).as_secs_f64();
            table.add_row(vec![
                threads.to_string(),
                format!("{makespan:.3}"),
                format!("{:.2}x", base_makespan / makespan),
                seconds(run.elapsed),
                format!("{:.0}%", run.metrics.worker_utilisation() * 100.0),
                mib(run.peak_memory_bytes),
                mib(run.disk_bytes),
            ]);
        }
        table.print();
    } else {
        let mut table = Table::new(
            "Table 5(b): Horizontal Scalability on Enron (2 threads per machine)",
            &[
                "Machine #",
                "Sim. makespan (sec)",
                "Sim. speedup",
                "Wall time (sec)",
                "Stolen tasks",
                "Remote fetches",
            ],
        );
        for machines in [1usize, 2, 4, 8] {
            let options = RunOptions {
                machines,
                threads_per_machine: 2,
                ..Default::default()
            };
            let run = run_dataset(spec, &options);
            let makespan = serial
                .metrics
                .simulated_makespan(machines * 2)
                .as_secs_f64();
            table.add_row(vec![
                machines.to_string(),
                format!("{makespan:.3}"),
                format!("{:.2}x", base_makespan / makespan),
                seconds(run.elapsed),
                run.metrics.stolen_tasks.to_string(),
                run.metrics.remote_fetches.to_string(),
            ]);
        }
        table.print();
    }
}

/// Table 6: mining vs subgraph-materialisation time on Hyves as τ_time varies.
fn table6(specs: &[DatasetSpec]) {
    let spec = spec_by_name(specs, "Hyves");
    let mut table = Table::new(
        "Table 6: Mining vs Subgraph Materialization on Hyves",
        &[
            "tau_time (ms)",
            "Job Time (sec)",
            "Total Mining (sec)",
            "Total Materialization (sec)",
            "Mining:Materialization",
        ],
    );
    for tau_time_ms in [50u64, 20, 10, 1, 0] {
        let options = RunOptions {
            tau_time: Some(Duration::from_millis(tau_time_ms)),
            ..Default::default()
        };
        let run = run_dataset(spec, &options);
        let ratio = run
            .metrics
            .mining_materialization_ratio()
            .map(|r| format!("{r:.1}"))
            .unwrap_or_else(|| "inf".to_string());
        table.add_row(vec![
            tau_time_ms.to_string(),
            seconds(run.elapsed),
            seconds(run.metrics.total_mining_time),
            seconds(run.metrics.total_materialization_time),
            ratio,
        ]);
    }
    table.print();
}

enum Figure {
    AllTasks,
    Top100,
    TimeVsSize,
}

/// Figures 1–3: per-task time distributions on the YouTube stand-in.
fn figures(specs: &[DatasetSpec], figure: Figure) {
    let spec = spec_by_name(specs, "YouTube");
    let run = run_dataset(spec, &RunOptions::default());
    match figure {
        Figure::AllTasks => {
            // Figure 1: per-root total time, plotted in the paper as a
            // log-scale scatter; printed here as a histogram over time buckets.
            let totals = run.metrics.per_root_totals();
            let mut table = Table::new(
                "Figure 1: Time of All Tasks Spawned by Unpruned Vertices (YouTube stand-in)",
                &["time bucket", "# spawning vertices"],
            );
            let buckets_ms = [1u128, 10, 100, 1_000, 10_000, u128::MAX];
            let mut counts = vec![0usize; buckets_ms.len()];
            for (_, time, _) in &totals {
                let ms = time.as_millis();
                let idx = buckets_ms.iter().position(|&b| ms < b).unwrap_or(0);
                counts[idx] += 1;
            }
            let labels = [
                "< 1 ms",
                "1-10 ms",
                "10-100 ms",
                "0.1-1 s",
                "1-10 s",
                ">= 10 s",
            ];
            for (label, count) in labels.iter().zip(counts) {
                table.add_row(vec![label.to_string(), count.to_string()]);
            }
            table.print();
            println!("total spawning vertices with tasks: {}\n", totals.len());
        }
        Figure::Top100 => {
            let totals = run.metrics.per_root_totals();
            let mut table = Table::new(
                "Figure 2: Time of Top-100 Tasks (YouTube stand-in)",
                &[
                    "rank",
                    "spawning vertex",
                    "total time (sec)",
                    "subgraph |V|",
                ],
            );
            for (rank, (root, time, size)) in totals.iter().take(100).enumerate() {
                table.add_row(vec![
                    (rank + 1).to_string(),
                    root.to_string(),
                    seconds(*time),
                    size.to_string(),
                ]);
            }
            table.print();
        }
        Figure::TimeVsSize => {
            let mut records = run.metrics.task_times.clone();
            records.sort_by_key(|r| std::cmp::Reverse(r.subgraph_size));
            let mut table = Table::new(
                "Figure 3: Running Time and Subgraph Size of the Largest Tasks (YouTube stand-in)",
                &["subgraph |V|", "time (sec)"],
            );
            for rec in records.iter().take(12) {
                table.add_row(vec![rec.subgraph_size.to_string(), seconds(rec.elapsed)]);
            }
            table.print();
            println!(
                "(The paper's point: tasks of comparable subgraph size can differ in running \
                 time by orders of magnitude, which is why size-based cost prediction fails and \
                 time-delayed decomposition is needed.)\n"
            );
        }
    }
}

/// Ablation: pruning rules and decomposition strategy (supports the claims in
/// Sections 1, 4 and 7 about rule effectiveness and time-delayed vs
/// size-threshold decomposition).
fn ablation(specs: &[DatasetSpec]) {
    // Serial ablation on the smallest dataset so the unpruned variants finish.
    let spec = scaled::tiny(spec_by_name(specs, "CX_GSE1730"));
    let dataset = spec.generate();
    let params = MiningParams::new(spec.gamma, spec.min_size);
    let mut table = Table::new(
        "Ablation: pruning-rule contributions (serial miner, CX_GSE1730 stand-in)",
        &["configuration", "Time (sec)", "nodes expanded", "Result #"],
    );
    let full = SerialMiner::new(params).mine(&dataset.graph);
    table.add_row(vec![
        "all rules".to_string(),
        seconds(full.elapsed),
        full.stats.nodes_expanded.to_string(),
        full.maximal.len().to_string(),
    ]);
    for rule in PruneConfig::rule_names() {
        let config = PruneConfig::all_enabled().without(rule);
        let out = SerialMiner::with_config(params, config).mine(&dataset.graph);
        table.add_row(vec![
            format!("without {rule}"),
            seconds(out.elapsed),
            out.stats.nodes_expanded.to_string(),
            out.maximal.len().to_string(),
        ]);
    }
    table.print();

    // Decomposition-strategy comparison on the Enron stand-in.
    let spec = spec_by_name(specs, "Enron");
    let ds = spec.generate();
    let graph = Arc::new(ds.graph);
    let params = MiningParams::new(spec.gamma, spec.min_size);
    let mut table = Table::new(
        "Ablation: time-delayed vs size-threshold decomposition (Enron stand-in)",
        &["strategy", "Time (sec)", "tasks decomposed", "Result #"],
    );
    for (label, strategy) in [
        ("time-delayed (Alg 10)", DecompositionStrategy::TimeDelayed),
        (
            "size-threshold (Alg 8)",
            DecompositionStrategy::SizeThreshold,
        ),
    ] {
        let config = EngineConfig::single_machine(default_threads());
        let out = ParallelMiner::new(params, config)
            .with_decomposition(spec.tau_split, Duration::from_millis(spec.tau_time_ms))
            .with_strategy(strategy)
            .mine(graph.clone());
        table.add_row(vec![
            label.to_string(),
            seconds(out.elapsed()),
            out.metrics.tasks_decomposed.to_string(),
            out.maximal.len().to_string(),
        ]);
    }
    table.print();
}
