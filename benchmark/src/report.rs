//! Result documents: the contract line, the full report, and `--compare`.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{Options, WorkloadReport};
use qcm_obs::json::{object, Json};
use std::collections::BTreeMap;

fn entry(value: f64, unit: &str) -> Json {
    object(vec![
        ("value", Json::from(value)),
        ("unit", Json::from(unit)),
    ])
}

/// The one-line result the driver reads: `correct`, `attempted`, `failed`
/// and the metrics of the pass that ran, each as `{value, unit}`.
pub fn contract_line(report: &WorkloadReport) -> Json {
    let mut metrics: Vec<(&str, Json)> = Vec::new();
    for (&(name, unit, _), summary) in END_TO_END.iter().zip(&report.end_to_end) {
        metrics.push((name, entry(summary.value, unit)));
    }
    if let Some(layers) = &report.per_layer {
        for &(name, unit) in PER_LAYER {
            metrics.push((name, entry(layers.get(name), unit)));
        }
    }
    object(vec![
        ("correct", Json::from(report.failures.is_empty())),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failures.len())),
        ("metrics", object(metrics)),
    ])
}

/// The full report (`--out`): per workload, every end-to-end metric with
/// its median, MAD and round count beside the reported value, and every
/// per-layer metric.
pub fn full(options: &Options, reports: &[WorkloadReport]) -> Json {
    let workloads = reports
        .iter()
        .map(|report| {
            let end_to_end = END_TO_END
                .iter()
                .zip(&report.end_to_end)
                .map(|(&(name, unit, _), s)| {
                    (
                        name,
                        object(vec![
                            ("value", Json::from(s.value)),
                            ("unit", Json::from(unit)),
                            ("median", Json::from(s.median)),
                            ("mad", Json::from(s.mad)),
                            ("rounds", Json::from(s.samples.len())),
                            (
                                "samples",
                                Json::Array(s.samples.iter().map(|&v| Json::from(v)).collect()),
                            ),
                        ]),
                    )
                })
                .collect();
            let per_layer = report.per_layer.as_ref().map_or(Vec::new(), |layers| {
                PER_LAYER
                    .iter()
                    .map(|&(name, unit)| (name, entry(layers.get(name), unit)))
                    .collect()
            });
            let failures = report
                .failures
                .iter()
                .take(10)
                .map(|f| Json::from(f.as_str()));
            (
                report.name,
                object(vec![
                    ("correct", Json::from(report.failures.is_empty())),
                    ("attempted", Json::from(report.attempted)),
                    ("failed", Json::from(report.failures.len())),
                    ("first_failures", Json::Array(failures.collect())),
                    ("end_to_end", object(end_to_end)),
                    ("per_layer", object(per_layer)),
                ]),
            )
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    object(vec![
        ("schema", Json::from("qcm-benchmark/v1")),
        ("seed", Json::from(options.seed)),
        ("structure_seed", Json::from(options.structure_seed)),
        ("seconds", Json::from(options.seconds)),
        ("quick", Json::from(options.quick)),
        ("available_parallelism", Json::from(cores)),
        ("workloads", object(workloads)),
    ])
}

/// A plain-text table of a full run, for the terminal.
pub fn table(reports: &[WorkloadReport]) -> String {
    let mut out = String::new();
    for report in reports {
        out.push_str(&format!(
            "{}: attempted {}, failed {}\n",
            report.name,
            report.attempted,
            report.failures.len()
        ));
        for (&(name, unit, _), s) in END_TO_END.iter().zip(&report.end_to_end) {
            out.push_str(&format!(
                "  {name:<14} {:>12.4} {unit:<7} (median {:.4}, mad {:.4}, rounds {})\n",
                s.value,
                s.median,
                s.mad,
                s.samples.len()
            ));
        }
        for failure in report.failures.iter().take(3) {
            out.push_str(&format!("  FAILED: {failure}\n"));
        }
    }
    out
}

/// One row of `--compare`.
pub struct Comparison {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a` (negative: better).
    pub worse_by: f64,
    pub bound: f64,
}

impl Comparison {
    pub fn exceeded(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// Compares the end-to-end metrics of two full reports against the bounds
/// and directions in `BENCHMARK.json`. `Err` lists what is malformed.
pub fn compare(spec: &Json, a: &Json, b: &Json) -> Result<Vec<Comparison>, String> {
    let mut bounds: BTreeMap<&str, (bool, f64)> = BTreeMap::new();
    for metric in spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
    {
        let name = metric
            .get("name")
            .and_then(Json::as_str)
            .ok_or("a metric has no name")?;
        let lower = metric.get("better").and_then(Json::as_str) == Some("lower");
        let bound = metric
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{name} has no bound"))?;
        bounds.insert(name, (lower, bound));
    }
    let workloads = |doc: &Json| match doc.get("workloads") {
        Some(Json::Object(map)) => Ok(map.clone()),
        _ => Err("a report has no workloads object".to_string()),
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (workload, in_a) in &wa {
        let Some(in_b) = wb.get(workload) else {
            continue;
        };
        for (&metric, &(lower, bound)) in &bounds {
            let value = |doc: &Json| {
                doc.get("end_to_end")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{workload} has no {metric}"))
            };
            let (va, vb) = (value(in_a)?, value(in_b)?);
            let worse_by = if lower { vb - va } else { va - vb } / va;
            rows.push(Comparison {
                workload: workload.clone(),
                metric: metric.to_string(),
                a: va,
                b: vb,
                worse_by,
                bound,
            });
        }
    }
    Ok(rows)
}

/// Failed operations per workload of a full report.
pub fn failed_counts(doc: &Json) -> Vec<(String, f64)> {
    match doc.get("workloads") {
        Some(Json::Object(map)) => map
            .iter()
            .map(|(name, w)| {
                let failed = w.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                (name.clone(), failed)
            })
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(p50: f64, rate: f64) -> Json {
        Json::parse(&format!(
            "{{\"workloads\":{{\"w\":{{\"failed\":0,\"end_to_end\":{{\
             \"job_p50_ms\":{{\"value\":{p50}}},\"jobs_per_s\":{{\"value\":{rate}}}}}}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn compare_is_direction_aware_and_flags_only_past_the_bound() {
        let spec = Json::parse(
            "{\"end_to_end\":[\
             {\"name\":\"job_p50_ms\",\"better\":\"lower\",\"bound\":0.1},\
             {\"name\":\"jobs_per_s\",\"better\":\"higher\",\"bound\":0.1}]}",
        )
        .unwrap();
        let rows = compare(&spec, &report(100.0, 50.0), &report(105.0, 40.0)).unwrap();
        assert_eq!(rows.len(), 2);
        let p50 = rows.iter().find(|r| r.metric == "job_p50_ms").unwrap();
        assert!((p50.worse_by - 0.05).abs() < 1e-9 && !p50.exceeded());
        let rate = rows.iter().find(|r| r.metric == "jobs_per_s").unwrap();
        assert!((rate.worse_by - 0.2).abs() < 1e-9 && rate.exceeded());
        // Better is never a regression.
        let rows = compare(&spec, &report(100.0, 50.0), &report(50.0, 500.0)).unwrap();
        assert!(rows.iter().all(|r| !r.exceeded()));
    }
}
