//! CLI subcommand implementations and a small, strict flag parser.
//!
//! Every subcommand returns the workspace-wide typed [`QcmError`]; `qcm mine`
//! drives the unified [`Session`] front door, so the CLI gets builder-time
//! validation, deadlines (`--deadline-ms`) and partial-result labelling for
//! free.

use qcm::{Backend, MiningReport, QcmError, Session};
use qcm_graph::{io, Graph, GraphStats};
use qcm_sync::Arc;
use std::collections::HashMap;
use std::io::Write;
use std::time::Duration;

/// Top-level usage text.
pub const USAGE: &str = "\
qcm — maximal quasi-clique miner (algorithm-system codesign reproduction)

USAGE:
    qcm mine <edge_list> --gamma <0..1> --min-size <n> [options]
    qcm trace <edge_list> [mine options] [--out <file>]
    qcm serve --listen <addr> [--workers <n>] [options]
    qcm generate --dataset <name> --output <file> [--seed <n>]
    qcm stats <edge_list>
    qcm fingerprint <edge_list>
    qcm datasets
    qcm help

TRACE:
    runs one traced mining run (hierarchical spans: run → decompose → task →
    mine_phase → steal/pull/spill) and writes Chrome trace-event JSON — load
    it in Perfetto or chrome://tracing. Takes the MINE OPTIONS below (except
    --format/--output) plus:

    --out <file>          trace output path (default trace.json)

SERVE:
    runs the multi-tenant mining job service over the versioned HTTP/1.1
    JSON API (POST /v1/jobs, GET /v1/jobs/<id>?wait_ms=, DELETE /v1/jobs/<id>,
    GET|PUT /v1/graphs, GET /metrics, GET /healthz); `quit` on stdin drains
    the service and exits.

    --listen <addr>       required: serve HTTP on <addr> (e.g. 127.0.0.1:8080;
                          port 0 picks a free port, printed at startup)
    --token <t>=<tenant>  HTTP bearer-token auth (comma-separate for more);
                          without it the service is open access
    --graph-root <dir>    confine graph paths in requests to this directory
                          (default: the working directory)
    --workers <n>         worker threads (default 2)
    --max-queued <n>      admission: max queued jobs (default 64)
    --max-in-flight <n>   admission: max concurrently mined jobs (default: unbounded)
    --quota <n>           admission: max unfinished jobs per tenant (default 16)
    --cache-capacity <n>  result-cache capacity in answers (default 128)
    --cache-ttl-ms <n>    result-cache time-to-live (default: no expiry)

MINE OPTIONS:
    --gamma <f>          minimum degree ratio γ (default 0.9)
    --min-size <n>       minimum quasi-clique size τ_size (default 10)
    --threads <n>        mining threads per machine (default: available cores, max 8)
    --machines <n>       simulated machines (default 1)
    --tau-split <n>      big-task threshold τ_split (default 100)
    --tau-time-ms <n>    decomposition timeout τ_time in milliseconds (default 10)
    --deadline-ms <n>    wall-clock budget; an exceeded deadline returns the
                         partial results found so far, labelled as such
    --transport <t>      inter-machine transport: inproc (default, zero-copy)
                         or strict (every message round-trips its wire form)
    --format <fmt>       output format: text (default) or json
    --serial             use the single-threaded reference miner
    --output <file>      write the result sets to a file (default: print summary only)";

/// Which flags a subcommand accepts.
pub(crate) struct FlagSpec {
    /// `--key value` flags.
    pub(crate) values: &'static [&'static str],
    /// Bare `--switch` flags.
    pub(crate) switches: &'static [&'static str],
}

const MINE_FLAGS: FlagSpec = FlagSpec {
    values: &[
        "gamma",
        "min-size",
        "threads",
        "machines",
        "tau-split",
        "tau-time-ms",
        "deadline-ms",
        "transport",
        "format",
        "output",
    ],
    switches: &["serial"],
};

const TRACE_FLAGS: FlagSpec = FlagSpec {
    values: &[
        "gamma",
        "min-size",
        "threads",
        "machines",
        "tau-split",
        "tau-time-ms",
        "deadline-ms",
        "transport",
        "out",
    ],
    switches: &["serial"],
};

const GENERATE_FLAGS: FlagSpec = FlagSpec {
    values: &["dataset", "output", "seed"],
    switches: &[],
};

const STATS_FLAGS: FlagSpec = FlagSpec {
    values: &[],
    switches: &[],
};

/// Parsed command-line flags: `--key value` pairs plus bare switches.
#[derive(Debug)]
pub(crate) struct Flags {
    pub(crate) positional: Vec<String>,
    pub(crate) values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses `args` against `spec`, rejecting unknown and duplicate flags.
    pub(crate) fn parse(args: &[String], spec: &FlagSpec) -> Result<Self, QcmError> {
        let mut positional = Vec::new();
        let mut values = HashMap::new();
        let mut switches: Vec<String> = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if let Some(name) = arg.strip_prefix("--") {
                if spec.switches.contains(&name) {
                    if switches.iter().any(|s| s == name) {
                        return Err(QcmError::InvalidConfig(format!("duplicate flag --{name}")));
                    }
                    switches.push(name.to_string());
                    i += 1;
                    continue;
                }
                if !spec.values.contains(&name) {
                    return Err(QcmError::InvalidConfig(format!(
                        "unknown flag --{name} (run `qcm help` for the flag list)"
                    )));
                }
                let value = args.get(i + 1).ok_or_else(|| {
                    QcmError::InvalidConfig(format!("flag --{name} expects a value"))
                })?;
                if values.insert(name.to_string(), value.clone()).is_some() {
                    return Err(QcmError::InvalidConfig(format!("duplicate flag --{name}")));
                }
                i += 2;
            } else {
                positional.push(arg.clone());
                i += 1;
            }
        }
        Ok(Flags {
            positional,
            values,
            switches,
        })
    }

    pub(crate) fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, QcmError> {
        Ok(self.get_opt(name)?.unwrap_or(default))
    }

    pub(crate) fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, QcmError> {
        match self.values.get(name) {
            None => Ok(None),
            Some(raw) => raw.parse::<T>().map(Some).map_err(|_| {
                QcmError::InvalidConfig(format!("invalid value {raw:?} for --{name}"))
            }),
        }
    }

    pub(crate) fn has_switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// Output format of `qcm mine`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
}

/// `qcm mine <edge_list> …`
pub fn mine(args: &[String]) -> Result<(), QcmError> {
    let flags = Flags::parse(args, &MINE_FLAGS)?;
    let path = flags
        .positional
        .first()
        .ok_or_else(|| QcmError::InvalidConfig("mine requires an edge-list path".into()))?;
    let format = match flags.values.get("format").map(String::as_str) {
        None | Some("text") => OutputFormat::Text,
        Some("json") => OutputFormat::Json,
        Some(other) => {
            return Err(QcmError::InvalidConfig(format!(
                "invalid value {other:?} for --format (expected text or json)"
            )))
        }
    };
    let graph = load_graph(path)?;
    let (builder, gamma, min_size) = session_builder_from_flags(&flags)?;
    let session = builder.build()?;

    if format == OutputFormat::Text {
        println!(
            "graph: {} vertices, {} edges; mining γ={gamma}, τ_size={min_size}",
            graph.num_vertices(),
            graph.num_edges()
        );
    }
    let graph = Arc::new(graph);
    let report = session.run(&graph)?;

    match format {
        OutputFormat::Json => println!("{}", report_to_json(&report, gamma, min_size)),
        OutputFormat::Text => print_text_report(&report),
    }
    if let Some(path) = flags.values.get("output") {
        write_results(&report, path)?;
        if format == OutputFormat::Text {
            println!("results written to {path}");
        }
    }
    Ok(())
}

/// Builds a [`SessionBuilder`] from the shared mine/trace flag set,
/// validating the cluster-shape flags unconditionally so a bad value is
/// rejected even when `--serial` makes them unused. Returns the builder
/// plus the parsed `(γ, τ_size)` for report headers.
fn session_builder_from_flags(
    flags: &Flags,
) -> Result<(qcm::SessionBuilder, f64, usize), QcmError> {
    let gamma: f64 = flags.get("gamma", 0.9)?;
    let min_size: usize = flags.get("min-size", 10)?;
    let threads: usize = flags.get("threads", default_threads())?;
    let machines: usize = flags.get("machines", 1usize)?;
    if threads == 0 {
        return Err(QcmError::InvalidConfig(
            "--threads must be at least 1".into(),
        ));
    }
    if machines == 0 {
        return Err(QcmError::InvalidConfig(
            "--machines must be at least 1".into(),
        ));
    }
    let backend = if flags.has_switch("serial") {
        Backend::Serial
    } else {
        let transport = match flags.values.get("transport").map(String::as_str) {
            None | Some("inproc") => qcm::TransportFactory::in_proc(),
            Some("strict") => qcm::TransportFactory::strict(),
            Some(other) => {
                return Err(QcmError::InvalidConfig(format!(
                    "invalid value {other:?} for --transport (expected inproc or strict; \
                     the fault simulator is driven through the library API)"
                )))
            }
        };
        Backend::Parallel {
            threads,
            machines,
            transport,
        }
    };
    let tau_split: usize = flags.get("tau-split", 100usize)?;
    let tau_time_ms: u64 = flags.get("tau-time-ms", 10u64)?;
    let mut builder = Session::builder()
        .gamma(gamma)
        .min_size(min_size)
        .backend(backend)
        .tau_split(tau_split)
        .tau_time(Duration::from_millis(tau_time_ms));
    if let Some(ms) = flags.get_opt::<u64>("deadline-ms")? {
        builder = builder.deadline(Duration::from_millis(ms));
    }
    Ok((builder, gamma, min_size))
}

fn print_text_report(report: &MiningReport) {
    println!(
        "found {} maximal quasi-cliques in {:.3} s",
        report.maximal.len(),
        report.elapsed.as_secs_f64()
    );
    if !report.is_complete() {
        println!(
            "note: run ended early ({:?}); only part of the search space was explored and \
             some reported sets may not be maximal in the full graph",
            report.outcome
        );
    }
    if let Some(p) = report
        .engine_metrics()
        .and_then(|m| m.task_time_percentiles())
    {
        println!(
            "task time p50/p95/p99: {:.3} / {:.3} / {:.3} ms",
            p.p50.as_secs_f64() * 1e3,
            p.p95.as_secs_f64() * 1e3,
            p.p99.as_secs_f64() * 1e3
        );
    }
    for (i, members) in report.maximal.iter().take(10).enumerate() {
        let ids: Vec<String> = members.iter().map(|v| v.to_string()).collect();
        println!(
            "  #{:<3} |S|={:<3} {{{}}}",
            i + 1,
            members.len(),
            ids.join(", ")
        );
    }
    if report.maximal.len() > 10 {
        println!(
            "  … ({} more; use --output to save all)",
            report.maximal.len() - 10
        );
    }
}

/// Renders the report as a single JSON object (no external dependencies, so
/// the encoding is hand-rolled; all emitted values are numbers, booleans and
/// fixed keywords).
fn report_to_json(report: &MiningReport, gamma: f64, min_size: usize) -> String {
    let outcome = match report.outcome {
        qcm::RunOutcome::Complete => "complete",
        qcm::RunOutcome::Cancelled => "cancelled",
        qcm::RunOutcome::DeadlineExceeded => "deadline_exceeded",
        qcm::RunOutcome::Faulted => "faulted",
    };
    let sets: Vec<String> = report
        .maximal
        .iter()
        .map(|members| {
            let ids: Vec<String> = members.iter().map(|v| v.raw().to_string()).collect();
            format!("[{}]", ids.join(","))
        })
        .collect();
    // Per-task wall-time percentiles, present only for engine-backed runs
    // (the serial miner has no task log).
    let task_time = report
        .engine_metrics()
        .and_then(|m| m.task_time_percentiles())
        .map(|p| {
            format!(
                ",\"task_time_ms\":{{\"p50\":{:.3},\"p95\":{:.3},\"p99\":{:.3}}}",
                p.p50.as_secs_f64() * 1e3,
                p.p95.as_secs_f64() * 1e3,
                p.p99.as_secs_f64() * 1e3
            )
        })
        .unwrap_or_default();
    format!(
        "{{\"gamma\":{gamma},\"min_size\":{min_size},\"outcome\":\"{outcome}\",\
         \"complete\":{},\"elapsed_ms\":{},\"raw_reported\":{},\"num_maximal\":{}{task_time},\
         \"maximal\":[{}]}}",
        report.is_complete(),
        report.elapsed.as_millis(),
        report.raw_reported,
        report.maximal.len(),
        sets.join(",")
    )
}

/// `qcm trace <edge_list> … --out <file>` — one traced mining run.
///
/// Accepts the `qcm mine` run flags, enables span recording for the run and
/// writes the result as Chrome trace-event JSON (loadable in Perfetto /
/// `chrome://tracing`), then prints a one-line span summary plus the
/// per-phase self-time breakdown — the greppable surface CI's trace-smoke
/// step asserts on.
pub fn trace(args: &[String]) -> Result<(), QcmError> {
    let flags = Flags::parse(args, &TRACE_FLAGS)?;
    let path = flags
        .positional
        .first()
        .ok_or_else(|| QcmError::InvalidConfig("trace requires an edge-list path".into()))?;
    let out_path = flags
        .values
        .get("out")
        .cloned()
        .unwrap_or_else(|| "trace.json".to_string());
    let graph = Arc::new(load_graph(path)?);
    let (builder, gamma, min_size) = session_builder_from_flags(&flags)?;
    let session = builder.tracing(qcm_obs::TraceConfig::default()).build()?;
    println!(
        "graph: {} vertices, {} edges; tracing mine γ={gamma}, τ_size={min_size}",
        graph.num_vertices(),
        graph.num_edges()
    );
    let report = session.run(&graph)?;
    let trace = report.trace.as_ref().ok_or_else(|| {
        QcmError::Engine(
            "tracing was unavailable: another recording is active in this process".into(),
        )
    })?;
    let json = qcm_obs::chrome::render(trace);
    std::fs::write(&out_path, &json)
        .map_err(|e| QcmError::Engine(format!("cannot write {out_path}: {e}")))?;
    println!(
        "spans={} run={} mine_phase={} task={} dropped={}",
        trace.spans.len(),
        trace.count(qcm_obs::SpanKind::Run),
        trace.count(qcm_obs::SpanKind::MinePhase),
        trace.count(qcm_obs::SpanKind::Task),
        trace.dropped
    );
    for (kind, us) in qcm_obs::self_time_by_kind(trace) {
        println!("self_time_us {kind}={us}");
    }
    println!(
        "found {} maximal quasi-cliques; trace written to {out_path}",
        report.maximal.len()
    );
    Ok(())
}

/// `qcm generate --dataset <name> --output <file>`
pub fn generate(args: &[String]) -> Result<(), QcmError> {
    let flags = Flags::parse(args, &GENERATE_FLAGS)?;
    let name = flags
        .values
        .get("dataset")
        .ok_or_else(|| QcmError::InvalidConfig("generate requires --dataset <name>".into()))?;
    let output = flags
        .values
        .get("output")
        .ok_or_else(|| QcmError::InvalidConfig("generate requires --output <file>".into()))?;
    let mut spec = qcm_gen::datasets::all_datasets()
        .into_iter()
        .chain(std::iter::once(qcm_gen::datasets::tiny_test_spec(7)))
        .find(|d| d.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            QcmError::InvalidConfig(format!(
                "unknown dataset {name}; run `qcm datasets` for the list"
            ))
        })?;
    spec.seed = flags.get("seed", spec.seed)?;
    let dataset = spec.generate();
    io::write_edge_list_file(&dataset.graph, output)?;
    println!(
        "wrote {} ({} vertices, {} edges, {} planted communities) to {output}",
        spec.name,
        dataset.graph.num_vertices(),
        dataset.graph.num_edges(),
        dataset.planted.len()
    );
    println!(
        "suggested mining parameters: --gamma {} --min-size {} --tau-split {} --tau-time-ms {}",
        spec.gamma, spec.min_size, spec.tau_split, spec.tau_time_ms
    );
    Ok(())
}

/// `qcm stats <edge_list>`
pub fn stats(args: &[String]) -> Result<(), QcmError> {
    let flags = Flags::parse(args, &STATS_FLAGS)?;
    let path = flags
        .positional
        .first()
        .ok_or_else(|| QcmError::InvalidConfig("stats requires an edge-list path".into()))?;
    let graph = load_graph(path)?;
    print_stats(&graph);
    Ok(())
}

/// Loads a graph from either a SNAP-style edge list or a `QCMGRPH` binary
/// snapshot, sniffing the magic bytes (the snapshot path goes through the
/// checksummed loader, so corrupt files are rejected with a typed error).
pub(crate) fn load_graph(path: &str) -> Result<Graph, QcmError> {
    Ok(io::read_auto_file(path)?)
}

/// `qcm fingerprint <edge_list>` — prints the stable content hash that keys
/// the service result cache and graph registries, so cache keys are
/// explainable.
pub fn fingerprint(args: &[String]) -> Result<(), QcmError> {
    let flags = Flags::parse(args, &STATS_FLAGS)?;
    let path = flags
        .positional
        .first()
        .ok_or_else(|| QcmError::InvalidConfig("fingerprint requires an edge-list path".into()))?;
    let graph = load_graph(path)?;
    println!(
        "{path}: {} vertices, {} edges, content hash {:#018x}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.content_hash()
    );
    Ok(())
}

/// `qcm datasets`
pub fn list_datasets() -> Result<(), QcmError> {
    println!("available synthetic stand-in datasets (see crates/gen/src/datasets.rs for the mapping to Table 1):");
    let tiny = qcm_gen::datasets::tiny_test_spec(7);
    for spec in qcm_gen::datasets::all_datasets()
        .into_iter()
        .chain(std::iter::once(tiny))
    {
        println!(
            "  {:<12} |V|≈{:<7} γ={:<4} τ_size={:<3} τ_split={:<5} τ_time={}ms",
            spec.name,
            spec.num_vertices,
            spec.gamma,
            spec.min_size,
            spec.tau_split,
            spec.tau_time_ms
        );
    }
    Ok(())
}

fn print_stats(graph: &Graph) {
    let stats = GraphStats::compute(graph);
    println!("vertices            : {}", stats.num_vertices);
    println!("edges               : {}", stats.num_edges);
    println!(
        "min / avg / max deg : {} / {:.2} / {}",
        stats.min_degree, stats.avg_degree, stats.max_degree
    );
    println!("degeneracy          : {}", stats.degeneracy);
    println!(
        "connected components: {} (largest {})",
        stats.num_components, stats.largest_component
    );
}

fn write_results(report: &MiningReport, path: &str) -> Result<(), QcmError> {
    let mut file = std::fs::File::create(path)
        .map_err(|e| QcmError::Engine(format!("cannot create {path}: {e}")))?;
    for members in report.maximal.iter() {
        let ids: Vec<String> = members.iter().map(|v| v.to_string()).collect();
        writeln!(file, "{}", ids.join(" "))
            .map_err(|e| QcmError::Engine(format!("write error: {e}")))?;
    }
    Ok(())
}

fn default_threads() -> usize {
    qcm_sync::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parser_handles_values_switches_and_positionals() {
        let flags = Flags::parse(
            &args(&[
                "input.txt",
                "--gamma",
                "0.8",
                "--serial",
                "--min-size",
                "12",
            ]),
            &MINE_FLAGS,
        )
        .unwrap();
        assert_eq!(flags.positional, vec!["input.txt"]);
        assert_eq!(flags.get::<f64>("gamma", 0.9).unwrap(), 0.8);
        assert_eq!(flags.get::<usize>("min-size", 10).unwrap(), 12);
        assert_eq!(flags.get::<usize>("threads", 3).unwrap(), 3);
        assert!(flags.has_switch("serial"));
        assert!(!flags.has_switch("quick"));
    }

    #[test]
    fn flag_parser_rejects_missing_values_and_bad_numbers() {
        assert!(matches!(
            Flags::parse(&args(&["--gamma"]), &MINE_FLAGS),
            Err(QcmError::InvalidConfig(_))
        ));
        let flags = Flags::parse(&args(&["--gamma", "abc"]), &MINE_FLAGS).unwrap();
        assert!(matches!(
            flags.get::<f64>("gamma", 0.9),
            Err(QcmError::InvalidConfig(_))
        ));
    }

    #[test]
    fn flag_parser_rejects_unknown_flags() {
        let err = Flags::parse(&args(&["--no-such-flag", "1"]), &MINE_FLAGS).unwrap_err();
        let QcmError::InvalidConfig(msg) = err else {
            panic!("expected InvalidConfig");
        };
        assert!(msg.contains("--no-such-flag"), "{msg}");
        // A value flag of one command is unknown to another.
        assert!(Flags::parse(&args(&["--gamma", "0.9"]), &GENERATE_FLAGS).is_err());
    }

    #[test]
    fn flag_parser_rejects_duplicate_flags() {
        let err =
            Flags::parse(&args(&["--gamma", "0.9", "--gamma", "0.8"]), &MINE_FLAGS).unwrap_err();
        let QcmError::InvalidConfig(msg) = err else {
            panic!("expected InvalidConfig");
        };
        assert!(msg.contains("duplicate"), "{msg}");
        assert!(Flags::parse(&args(&["--serial", "--serial"]), &MINE_FLAGS).is_err());
    }

    #[test]
    fn mine_rejects_invalid_session_configs_with_typed_errors() {
        let dir = std::env::temp_dir().join(format!("qcm_cli_badcfg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("tiny.txt");
        let dataset = qcm_gen::datasets::tiny_test_dataset(5);
        io::write_edge_list_file(&dataset.graph, &graph_path).unwrap();
        let path = graph_path.to_string_lossy().into_owned();

        let err = mine(&args(&[&path, "--gamma", "1.5"])).unwrap_err();
        assert!(matches!(err, QcmError::InvalidConfig(_)));
        let err = mine(&args(&[&path, "--threads", "0"])).unwrap_err();
        assert!(matches!(err, QcmError::InvalidConfig(_)));
        let err = mine(&args(&[&path, "--format", "xml"])).unwrap_err();
        assert!(matches!(err, QcmError::InvalidConfig(_)));
        // Cluster-shape flags are validated even when --serial ignores them.
        let err = mine(&args(&[&path, "--serial", "--threads", "abc"])).unwrap_err();
        assert!(matches!(err, QcmError::InvalidConfig(_)));
        let err = mine(&args(&[&path, "--transport", "bogus"])).unwrap_err();
        let QcmError::InvalidConfig(msg) = err else {
            panic!("expected InvalidConfig for --transport bogus");
        };
        assert!(msg.contains("transport"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_transport_mines_the_same_results_as_the_default() {
        let dir = std::env::temp_dir().join(format!("qcm_cli_strict_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("tiny.txt");
        let dataset = qcm_gen::datasets::tiny_test_dataset(6);
        io::write_edge_list_file(&dataset.graph, &graph_path).unwrap();
        let gamma = format!("{}", dataset.spec.gamma);
        let min_size = dataset.spec.min_size.to_string();
        let run = |transport: &str, out: &std::path::Path| {
            mine(&args(&[
                &graph_path.to_string_lossy(),
                "--gamma",
                &gamma,
                "--min-size",
                &min_size,
                "--threads",
                "2",
                "--machines",
                "2",
                "--transport",
                transport,
                "--output",
                &out.to_string_lossy(),
            ]))
            .unwrap();
        };
        let default_out = dir.join("inproc.txt");
        let strict_out = dir.join("strict.txt");
        run("inproc", &default_out);
        run("strict", &strict_out);
        let a = std::fs::read_to_string(&default_out).unwrap();
        let b = std::fs::read_to_string(&strict_out).unwrap();
        assert_eq!(a, b, "strict transport changed the mined result sets");
        assert!(!a.trim().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_generate_stats_and_mine() {
        let dir = std::env::temp_dir().join(format!("qcm_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("tiny.txt");
        let results_path = dir.join("results.txt");

        // Write a small graph via the library and exercise stats + mine.
        let dataset = qcm_gen::datasets::tiny_test_dataset(5);
        io::write_edge_list_file(&dataset.graph, &graph_path).unwrap();

        stats(&args(&[&graph_path.to_string_lossy()])).unwrap();

        let gamma = format!("{}", dataset.spec.gamma);
        let min_size = dataset.spec.min_size.to_string();
        let mine_args = args(&[
            &graph_path.to_string_lossy(),
            "--gamma",
            &gamma,
            "--min-size",
            &min_size,
            "--threads",
            "2",
            "--format",
            "json",
            "--output",
            &results_path.to_string_lossy(),
        ]);
        mine(&mine_args).unwrap();
        let written = std::fs::read_to_string(&results_path).unwrap();
        assert!(
            !written.trim().is_empty(),
            "mining the planted graph must find results"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadline_zero_still_succeeds_with_partial_results() {
        let dir = std::env::temp_dir().join(format!("qcm_cli_deadline_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("tiny.txt");
        let dataset = qcm_gen::datasets::tiny_test_dataset(5);
        io::write_edge_list_file(&dataset.graph, &graph_path).unwrap();
        let gamma = format!("{}", dataset.spec.gamma);
        let min_size = dataset.spec.min_size.to_string();
        mine(&args(&[
            &graph_path.to_string_lossy(),
            "--gamma",
            &gamma,
            "--min-size",
            &min_size,
            "--serial",
            "--deadline-ms",
            "0",
            "--format",
            "json",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_report_encodes_outcome_and_results() {
        let dataset = qcm_gen::datasets::tiny_test_dataset(4);
        let graph = Arc::new(dataset.graph.clone());
        let session = Session::builder()
            .gamma(dataset.spec.gamma)
            .min_size(dataset.spec.min_size)
            .build()
            .unwrap();
        let report = session.run(&graph).unwrap();
        let json = report_to_json(&report, dataset.spec.gamma, dataset.spec.min_size);
        assert!(json.contains("\"outcome\":\"complete\""));
        assert!(json.contains("\"complete\":true"));
        assert!(json.contains(&format!("\"num_maximal\":{}", report.maximal.len())));
    }

    #[test]
    fn unknown_dataset_is_an_error() {
        let err = generate(&args(&[
            "--dataset",
            "NoSuchGraph",
            "--output",
            "/tmp/never_written.txt",
        ]))
        .unwrap_err();
        assert!(matches!(err, QcmError::InvalidConfig(_)));
        assert!(list_datasets().is_ok());
    }
}
