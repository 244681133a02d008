//! Runs `benchmark --quick` (tiny inputs, one round per workload, both
//! passes) and checks its report against `BENCHMARK.json`.

use qcm_obs::json::Json;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

const BENCHMARK: &str = env!("CARGO_BIN_EXE_benchmark");

fn spec() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one of the spec's lists, asserting that
/// no name repeats and every name is well formed.
fn named(spec: &Json, list: &str) -> Vec<(String, String)> {
    let rows: Vec<(String, String)> = spec
        .get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {list}"))
        .iter()
        .map(|row| {
            let text = |key: &str| {
                row.get(key)
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect();
    let distinct: BTreeSet<&String> = rows.iter().map(|(name, _)| name).collect();
    assert_eq!(distinct.len(), rows.len(), "{list} repeats a name");
    for (name, _) in &rows {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name:?} does not match [A-Za-z0-9_.-]+"
        );
    }
    rows
}

fn run(args: &[&str]) -> Output {
    Command::new(BENCHMARK)
        .args(args)
        .output()
        .expect("running the benchmark binary")
}

fn keys(json: &Json) -> BTreeSet<String> {
    match json {
        Json::Object(map) => map.keys().cloned().collect(),
        _ => panic!("expected an object, got {json:?}"),
    }
}

/// Every metric of `rows` is in `got` exactly once (JSON object keys are
/// unique; the sets must be equal), finite, and carries the spec's unit.
fn check_metrics(got: &Json, rows: &[(String, String)], context: &str) {
    let expected: BTreeSet<String> = rows.iter().map(|(name, _)| name.clone()).collect();
    assert_eq!(keys(got), expected, "{context}: metric names");
    for (name, unit) in rows {
        let metric = got.get(name).unwrap();
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{context}: {name} is not a finite number"
        );
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{context}: unit of {name}"
        );
    }
}

#[test]
fn quick_run_reports_every_named_workload_and_metric() {
    let spec = spec();
    let workloads = named(&spec, "workloads");
    let end_to_end = named(&spec, "end_to_end");
    let per_layer = named(&spec, "per_layer");

    let out = std::env::temp_dir().join(format!("qcm_benchmark_smoke_{}.json", std::process::id()));
    let output = run(&["--quick", "--out", out.to_str().unwrap()]);
    assert!(
        output.status.success(),
        "benchmark --quick failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("the report parses");
    std::fs::remove_file(&out).ok();

    let ran = report.get("workloads").expect("a workloads object");
    // The full run also has the workload the contract does not gate.
    let mut expected: BTreeSet<String> = workloads.iter().map(|(name, _)| name.clone()).collect();
    assert!(expected.insert("serve_hot_small".to_string()));
    assert_eq!(keys(ran), expected, "workload names");
    for name in &expected {
        let workload = ran.get(name).unwrap();
        assert_eq!(
            workload.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{name}: failed operations (failed_share must be 0)"
        );
        assert!(workload.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(workload.get("correct").and_then(Json::as_bool), Some(true));
        check_metrics(workload.get("end_to_end").unwrap(), &end_to_end, name);
        check_metrics(workload.get("per_layer").unwrap(), &per_layer, name);
        for (metric, _) in &end_to_end {
            let value = workload.get("end_to_end").unwrap().get(metric).unwrap();
            assert!(
                value.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{name}: end-to-end metric {metric} must never be 0"
            );
        }
    }

    // The workloads do what they say: cold never hits the result cache, hot
    // always does and mines nothing while timed.
    let layer = |workload: &str, metric: &str| {
        ran.get(workload)
            .and_then(|w| w.get("per_layer"))
            .and_then(|l| l.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap()
    };
    assert_eq!(layer("serve_cold_jobs", "service.cache_hit_ratio"), 0.0);
    assert!(layer("serve_cold_jobs", "service.jobs_mined") > 0.0);
    assert!(layer("serve_hot_small", "service.cache_hit_ratio") > 0.99);
    assert_eq!(layer("serve_hot_small", "service.jobs_mined"), 0.0);
    // And they separate the layers: no HTTP on a mining workload, no engine
    // on the serial one.
    assert_eq!(layer("mine_hubs_serial", "http.parse_head_ns"), 0.0);
    assert_eq!(layer("mine_hubs_serial", "engine.tasks_processed"), 0.0);
    assert!(layer("mine_skew_cluster", "engine.remote_fetches") > 0.0);
    assert_eq!(layer("mine_skew_parallel", "engine.remote_fetches"), 0.0);
}

#[test]
fn one_workload_prints_the_contract_line() {
    let spec = spec();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = run(&[
            "--quick",
            "--workload",
            "serve_hot_small",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        assert!(output.status.success());
        let stdout = String::from_utf8(output.stdout).unwrap();
        let line = Json::parse(stdout.lines().last().expect("a result line")).unwrap();
        let expected = ["attempted", "correct", "failed", "metrics"];
        assert_eq!(
            keys(&line),
            expected.iter().map(|k| k.to_string()).collect()
        );
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = line.get("metrics").unwrap();
        check_metrics(metrics, &named(&spec, list), "contract line");
        for (name, _) in named(&spec, list) {
            let entry = metrics.get(&name).unwrap();
            let expected = ["unit", "value"];
            assert_eq!(
                keys(entry),
                expected.iter().map(|k| k.to_string()).collect()
            );
        }
    }
}

#[test]
fn a_wrong_reference_fails_the_run() {
    for workload in ["mine_hubs_serial", "serve_cold_jobs"] {
        let output = run(&["--quick", "--workload", workload, "--corrupt-reference"]);
        assert_eq!(output.status.code(), Some(1), "{workload}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        let line = Json::parse(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert!(line.get("failed").and_then(Json::as_f64).unwrap() >= 1.0);
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    let output = run(&["--workload", "no_such_workload"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}

#[test]
fn compare_flags_a_regression_past_the_bound() {
    let dir = std::env::temp_dir().join(format!("qcm_benchmark_cmp_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = |p50: f64| {
        format!(
            "{{\"seed\":1,\"workloads\":{{\"mine_hubs_serial\":{{\"failed\":0,\"end_to_end\":{{\
             \"setup_s\":{{\"value\":1}},\"job_p50_ms\":{{\"value\":{p50}}},\
             \"job_p90_ms\":{{\"value\":{p50}}},\"jobs_per_s\":{{\"value\":1}},\
             \"peak_rss_mb\":{{\"value\":4}}}}}}}}}}"
        )
    };
    let (a, same, slow) = (dir.join("a.json"), dir.join("b.json"), dir.join("c.json"));
    std::fs::write(&a, report(900.0)).unwrap();
    std::fs::write(&same, report(905.0)).unwrap();
    std::fs::write(&slow, report(1500.0)).unwrap();
    let spec_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let compare = |b: &PathBuf| {
        run(&[
            "--compare",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--spec",
            spec_path.to_str().unwrap(),
        ])
    };
    assert_eq!(compare(&same).status.code(), Some(0));
    let regressed = compare(&slow);
    assert_eq!(regressed.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&regressed.stdout).contains("EXCEEDED"));
    std::fs::remove_dir_all(&dir).ok();
}
