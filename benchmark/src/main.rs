//! The benchmark of record for qcm. README.md is the manual; `BENCHMARK.json`
//! at the repository root is the contract.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload; the last stdout line is the result object
//! benchmark [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
//!     every workload, rounds interleaved, both passes; a table, and the
//!     full report to <file>
//! benchmark --compare <a.json> <b.json> [--spec <BENCHMARK.json>]
//!     two full reports against the bounds; exits 1 past a bound
//! ```

mod layers;
mod loadgen;
mod metrics;
mod report;
mod rounds;
mod run;
mod spans;
mod stats;
mod workloads;

use qcm_obs::json::Json;
use run::{Options, Passes};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The seed results are recorded at. Numbers compare only at equal seeds.
const PINNED_SEED: u64 = 1;
/// Seconds of untraced rounds per workload (`run_seconds` in the contract).
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "\
benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
    one workload; the last stdout line is the result object
benchmark [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
    every workload, rounds interleaved, both passes
benchmark --compare <a.json> <b.json> [--spec <BENCHMARK.json>]
    two full reports against the bounds; exits 1 past a bound
also: --structure-seed <n>, --corrupt-reference; see benchmark/README.md";

/// Flags with a value, flags without, and what is left over.
struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

const SWITCHES: &[&str] = &[
    "--quick",
    "--corrupt-reference",
    "--compare",
    "--help",
    "--single-worker",
];

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if SWITCHES.contains(&arg.as_str()) {
                args.switches.push(arg);
            } else if arg.starts_with("--") {
                let value = raw.next().ok_or_else(|| format!("{arg} needs a value"))?;
                args.values.push((arg, value));
            } else {
                args.positional.push(arg);
            }
        }
        Ok(args)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(name, _)| name == flag)
            .map(|(_, value)| value.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for {flag}")),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => return usage_error(&message),
    };
    let outcome = if args.has("--help") {
        println!("{USAGE}");
        Ok(ExitCode::SUCCESS)
    } else if let Some(mode) = args.value("--child") {
        child(mode, &args)
    } else if args.has("--compare") {
        compare(&args)
    } else {
        benchmark(&args)
    };
    outcome.unwrap_or_else(|message| usage_error(&message))
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("benchmark: {message} (see benchmark/README.md, or --help)");
    ExitCode::from(2)
}

fn named_workload(args: &Args) -> Result<Option<&'static workloads::Workload>, String> {
    match args.value("--workload") {
        None => Ok(None),
        Some(name) => workloads::find(name).map(Some).ok_or_else(|| {
            let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?} (known: {})", known.join(", "))
        }),
    }
}

/// The hidden entry points a round's child process runs.
fn child(mode: &str, args: &Args) -> Result<ExitCode, String> {
    let workload = named_workload(args)?.ok_or("--child needs --workload")?;
    let dir = PathBuf::from(args.value("--dir").ok_or("--child needs --dir")?);
    let traced = args.value("--trace") == Some("1");
    let quick = args.has("--quick");
    match mode {
        "mine" => rounds::child_mine(workload, &dir, quick, traced, args.has("--single-worker")),
        "serve" => rounds::child_serve(&dir, traced),
        other => return Err(format!("unknown child mode {other:?}")),
    }
    Ok(ExitCode::SUCCESS)
}

fn benchmark(args: &Args) -> Result<ExitCode, String> {
    let single = named_workload(args)?;
    let passes = match (single, args.value("--trace")) {
        (_, Some("0")) => Passes::EndToEnd,
        (_, Some("1")) => Passes::PerLayer,
        (None, None) => Passes::Both,
        (Some(_), None) => Passes::EndToEnd,
        (_, Some(other)) => return Err(format!("invalid value {other:?} for --trace")),
    };
    let options = Options {
        workloads: single.map_or(workloads::WORKLOADS.iter().collect(), |w| vec![w]),
        seed: args.number("--seed", PINNED_SEED)?,
        structure_seed: args.number("--structure-seed", 0)?,
        seconds: args.number("--seconds", DEFAULT_SECONDS)?,
        passes,
        quick: args.has("--quick"),
        corrupt_reference: args.has("--corrupt-reference"),
    };
    let reports = run::run(&options);
    for report in &reports {
        for file in &report.trace_files {
            eprintln!("benchmark: {} trace at {}", report.name, file.display());
        }
        for failure in report.failures.iter().take(5) {
            eprintln!("benchmark: {} FAILED: {failure}", report.name);
        }
    }
    if let Some(path) = args.value("--out") {
        std::fs::write(path, report::full(&options, &reports).render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    match (single, reports.as_slice()) {
        (Some(_), [only]) => println!("{}", report::contract_line(only).render()),
        _ => print!("{}", report::table(&reports)),
    }
    let correct = reports
        .iter()
        .all(|r| r.failures.is_empty() && r.attempted > 0);
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("--compare takes two report files".to_string());
    };
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(Path::new(path))
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let spec = read(args.value("--spec").unwrap_or("BENCHMARK.json"))?;
    let (a, b) = (read(a)?, read(b)?);
    let seed = |doc: &Json| doc.get("seed").and_then(Json::as_f64);
    if seed(&a) != seed(&b) {
        eprintln!("benchmark: the reports were taken at different seeds; numbers compare only at equal seeds");
    }
    let rows = report::compare(&spec, &a, &b)?;
    println!(
        "{:<20} {:<12} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let mut regressed = false;
    for row in &rows {
        println!(
            "{:<20} {:<12} {:>12.4} {:>12.4} {:>8.1}% {:>6.0}%{}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.worse_by * 100.0,
            row.bound * 100.0,
            if row.exceeded() { "  EXCEEDED" } else { "" }
        );
        regressed |= row.exceeded();
    }
    // Any failed operation is a regression, whatever the times say.
    for (workload, failed) in report::failed_counts(&b) {
        if failed > 0.0 {
            println!("{workload}: {failed} failed operations in b  EXCEEDED");
            regressed = true;
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
