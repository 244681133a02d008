//! Closed-loop HTTP load generator for the `qcm serve` overload SLO.
//!
//! Each client thread drives the real socket: `POST /v1/jobs`, then
//! long-poll `GET /v1/jobs/{id}?wait_ms=` until the job is terminal, then
//! immediately submit again — a *closed* loop, so offered concurrency
//! equals the client count and overload is controlled by outnumbering the
//! service's `workers + max_queued` capacity. A `429` (admission control
//! shedding) counts as a *shed* request, not an error: the SLO under
//! overload is "fast 429s and bounded latency for the admitted", which is
//! exactly what [`LoadGenReport`] measures (`p99_ms` over completed
//! requests, `shed_rate` over all of them).
//!
//! The generator speaks HTTP/1.1 with `Connection: close` per request —
//! deliberately the simplest correct client, so a bug in keep-alive
//! handling on the server side cannot hide in the measurement loop.

use qcm_obs::json::{self, Json};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Load-generator configuration.
#[derive(Clone, Debug)]
pub struct LoadGenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues before stopping.
    pub requests_per_client: usize,
    /// Server-local graph path each job mines.
    pub graph_path: String,
    /// γ submitted with every job.
    pub gamma: f64,
    /// τ_size submitted with every job.
    pub min_size: usize,
    /// Long-poll slice (`wait_ms=` query) while awaiting a terminal state.
    pub wait_ms: u64,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            addr: String::new(),
            clients: 8,
            requests_per_client: 8,
            graph_path: String::new(),
            gamma: 0.8,
            min_size: 6,
            wait_ms: 2_000,
        }
    }
}

/// What the run measured.
#[derive(Clone, Debug, Default)]
pub struct LoadGenReport {
    /// Clients that ran.
    pub clients: usize,
    /// Requests attempted (`clients × requests_per_client`).
    pub total: usize,
    /// Requests that reached a terminal job state.
    pub completed: usize,
    /// Requests shed by admission control (HTTP 429, with `Retry-After`).
    pub shed: usize,
    /// Transport failures and non-429 error responses.
    pub errors: usize,
    /// Median submit→terminal latency over completed requests (ms).
    pub p50_ms: f64,
    /// 99th-percentile submit→terminal latency over completed requests (ms).
    pub p99_ms: f64,
    /// `shed / total`.
    pub shed_rate: f64,
    /// 429 responses that arrived without a `Retry-After` header — must stay
    /// zero; a shed response without back-off guidance is an SLO bug.
    pub shed_without_retry_after: usize,
}

impl LoadGenReport {
    /// Serialises the report (the `serve_overload` BENCH row's fields).
    pub fn to_json(&self) -> Json {
        json::object(vec![
            ("clients", Json::from(self.clients)),
            ("total", Json::from(self.total)),
            ("completed", Json::from(self.completed)),
            ("shed", Json::from(self.shed)),
            ("errors", Json::from(self.errors)),
            ("p50_ms", Json::from(self.p50_ms)),
            ("p99_ms", Json::from(self.p99_ms)),
            ("shed_rate", Json::from(self.shed_rate)),
            (
                "shed_without_retry_after",
                Json::from(self.shed_without_retry_after),
            ),
        ])
    }
}

/// One client's tally.
#[derive(Default)]
struct ClientTally {
    latencies_ms: Vec<f64>,
    shed: usize,
    errors: usize,
    shed_without_retry_after: usize,
}

/// Runs the closed loop and aggregates every client's tally.
pub fn run(config: &LoadGenConfig) -> LoadGenReport {
    let mut handles = Vec::with_capacity(config.clients);
    for _ in 0..config.clients {
        let config = config.clone();
        handles.push(qcm_sync::thread::spawn(move || run_client(&config)));
    }
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut report = LoadGenReport {
        clients: config.clients,
        total: config.clients * config.requests_per_client,
        ..LoadGenReport::default()
    };
    for handle in handles {
        let tally = handle.join().expect("load-gen client panicked");
        report.shed += tally.shed;
        report.errors += tally.errors;
        report.shed_without_retry_after += tally.shed_without_retry_after;
        latencies_ms.extend(tally.latencies_ms);
    }
    report.completed = latencies_ms.len();
    report.shed_rate = report.shed as f64 / (report.total as f64).max(1.0);
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    report.p50_ms = percentile(&latencies_ms, 50.0);
    report.p99_ms = percentile(&latencies_ms, 99.0);
    report
}

/// Nearest-rank percentile of an already-sorted slice; 0 when empty.
fn percentile(sorted_ms: &[f64], pct: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

fn run_client(config: &LoadGenConfig) -> ClientTally {
    let mut tally = ClientTally::default();
    let body = format!(
        "{{\"graph\":{},\"gamma\":{},\"min_size\":{}}}",
        Json::from(config.graph_path.clone()).render(),
        config.gamma,
        config.min_size
    );
    for _ in 0..config.requests_per_client {
        let started = Instant::now();
        let submitted = match request(&config.addr, "POST", "/v1/jobs", Some(&body)) {
            Ok(response) => response,
            Err(_) => {
                tally.errors += 1;
                continue;
            }
        };
        match submitted.status {
            202 => {}
            429 => {
                tally.shed += 1;
                if !submitted.has_retry_after {
                    tally.shed_without_retry_after += 1;
                }
                continue;
            }
            _ => {
                tally.errors += 1;
                continue;
            }
        }
        let Some(job) = Json::parse(&submitted.body)
            .ok()
            .and_then(|json| json.get("job").and_then(Json::as_f64))
        else {
            tally.errors += 1;
            continue;
        };
        // Long-poll until terminal; each poll blocks server-side for up to
        // `wait_ms`, so this loop spins slowly even under load.
        let path = format!("/v1/jobs/{}?wait_ms={}", job as u64, config.wait_ms);
        let mut done = false;
        while !done {
            match request(&config.addr, "GET", &path, None) {
                Ok(poll) if poll.status == 200 => {
                    done = poll.body.contains("\"outcome\":");
                }
                _ => {
                    tally.errors += 1;
                    break;
                }
            }
        }
        if done {
            tally
                .latencies_ms
                .push(started.elapsed().as_secs_f64() * 1e3);
        }
    }
    tally
}

/// A minimal parsed HTTP response.
struct HttpResponse {
    status: u16,
    has_retry_after: bool,
    body: String,
}

/// One `Connection: close` HTTP/1.1 exchange.
fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<HttpResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let body = body.unwrap_or("");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(raw.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&response);
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response without header terminator".to_string())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("unparseable status line in {head:?}"))?;
    let has_retry_after = head
        .lines()
        .any(|line| line.to_ascii_lowercase().starts_with("retry-after:"));
    Ok(HttpResponse {
        status,
        has_retry_after,
        body: payload.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn report_serialises_slo_fields() {
        let report = LoadGenReport {
            clients: 10,
            total: 80,
            completed: 50,
            shed: 30,
            errors: 0,
            p50_ms: 12.0,
            p99_ms: 80.0,
            shed_rate: 0.375,
            shed_without_retry_after: 0,
        };
        let rendered = report.to_json().render();
        for needle in [
            "\"p99_ms\":80",
            "\"shed_rate\":0.375",
            "\"shed\":30",
            "\"shed_without_retry_after\":0",
        ] {
            assert!(rendered.contains(needle), "{needle} missing in {rendered}");
        }
    }
}
