//! End-to-end tests over the real socket: a `Server` is started on a free
//! loopback port and driven with a hand-rolled HTTP/1.1 client, so every
//! layer — accept loop, parser, router, API, mining service — is on the
//! path: the job lifecycle with its cache and metrics, plus the semantics
//! only a network surface has — auth, load shedding with `Retry-After`, a
//! failed job's typed error, and malformed-input isolation.

use qcm_core::QuasiCliqueSink;
use qcm_graph::VertexId;
use qcm_http::{Api, AuthConfig, Server, ServerConfig};
use qcm_service::{AdmissionControl, JobRequest, ServiceConfig};
use qcm_sync::atomic::{AtomicBool, Ordering};
use qcm_sync::{thread, Arc};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One `Connection: close` exchange; returns (status, headers, body).
fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    parse_response(&response)
}

fn parse_response(response: &[u8]) -> (u16, String, String) {
    let text = String::from_utf8_lossy(response).to_string();
    let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_string(), body.to_string())
}

fn with_graph_file<R>(tag: &str, f: impl FnOnce(&str) -> R) -> R {
    let dir = std::env::temp_dir().join(format!("qcm_http_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.txt");
    let dataset = qcm_gen::datasets::tiny_test_dataset(9);
    qcm_graph::io::write_edge_list_file(&dataset.graph, &path).unwrap();
    let result = f(&path.to_string_lossy());
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn start_server(config: ServiceConfig, auth: AuthConfig) -> Server {
    Server::start(
        Arc::new(Api::start(config, auth)),
        ServerConfig {
            workers: 4,
            read_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .expect("loopback listener")
}

#[test]
fn submit_long_poll_fetch_round_trip_with_cache_hit() {
    with_graph_file("roundtrip", |path| {
        let server = start_server(ServiceConfig::default(), AuthConfig::open());
        let addr = server.local_addr().to_string();
        let body = format!("{{\"graph\":\"{path}\",\"gamma\":0.8,\"min_size\":6}}");

        let (status, _, submitted) = request(&addr, "POST", "/v1/jobs", &[], &body);
        assert_eq!(status, 202, "{submitted}");
        assert!(submitted.contains("\"job\":1"), "{submitted}");
        assert!(submitted.contains("\"cache_hit\":false"), "{submitted}");

        let (status, _, view) = request(&addr, "GET", "/v1/jobs/1?wait_ms=30000", &[], "");
        assert_eq!(status, 200, "{view}");
        assert!(view.contains("\"outcome\":\"complete\""), "{view}");
        assert!(view.contains("\"status\":\"completed\""), "{view}");
        assert!(view.contains("\"num_maximal\":"), "{view}");

        // The same query again: served from the result cache at submit.
        let (status, _, hot) = request(&addr, "POST", "/v1/jobs", &[], &body);
        assert_eq!(status, 202, "{hot}");
        assert!(hot.contains("\"cache_hit\":true"), "{hot}");

        // /metrics speaks well-formed Prometheus text exposition.
        let (status, head, metrics) = request(&addr, "GET", "/metrics", &[], "");
        assert_eq!(status, 200);
        assert!(head.contains("text/plain"), "{head}");
        qcm_obs::prometheus::check_text(&metrics).expect("well-formed exposition");
        // One mined job (the repeat was a cache hit) shows up in all three
        // metric families: service counters, kernel counters, latency.
        for line in [
            "# TYPE qcm_service_jobs_mined_total counter",
            "qcm_service_jobs_mined_total 1",
            "qcm_service_cache_hits_total 1",
            "# TYPE qcm_graph_edge_queries_total counter",
            "# TYPE qcm_graph_allocations_avoided_total counter",
            "# TYPE qcm_graph_bitset_hits_total counter",
            "# TYPE qcm_graph_intersections_total counter",
            "# TYPE qcm_graph_scratch_bytes_peak gauge",
            "# TYPE qcm_graph_scratch_fresh_allocs_total counter",
            "# TYPE qcm_graph_steal_failures_total counter",
            "# TYPE qcm_graph_steals_total counter",
            "# TYPE qcm_service_cache_entries gauge",
            "# TYPE qcm_service_cache_hits_total counter",
            "# TYPE qcm_service_cache_misses_total counter",
            "# TYPE qcm_service_cancelled_total counter",
            "# TYPE qcm_service_completed_total counter",
            "# TYPE qcm_service_failed_total counter",
            "# TYPE qcm_service_job_latency_seconds gauge",
            "# TYPE qcm_service_jobs_in_flight gauge",
            "# TYPE qcm_service_latency_samples_dropped_total counter",
            "# TYPE qcm_service_latency_samples_total counter",
            "# TYPE qcm_service_queue_depth gauge",
            "# TYPE qcm_service_rejected_total counter",
            "# TYPE qcm_service_submitted_total counter",
        ] {
            assert!(metrics.lines().any(|l| l == line), "{line}: {metrics}");
        }
        for prefix in [
            "# HELP qcm_service_queue_depth ",
            "qcm_service_job_latency_seconds{quantile=\"0.5\"} ",
        ] {
            assert!(
                metrics.lines().any(|l| l.starts_with(prefix)),
                "{prefix}: {metrics}"
            );
        }

        let (status, _, health) = request(&addr, "GET", "/healthz", &[], "");
        assert_eq!(status, 200);
        assert!(health.contains("\"status\":\"ok\""), "{health}");

        server.shutdown();
    });
}

#[test]
fn bad_token_is_401_with_stable_code() {
    with_graph_file("auth", |path| {
        let server = start_server(
            ServiceConfig::default(),
            AuthConfig::with_tokens([("sekrit".to_string(), "alpha".to_string())]),
        );
        let addr = server.local_addr().to_string();
        let body = format!("{{\"graph\":\"{path}\"}}");

        for headers in [&[][..], &[("Authorization", "Bearer wrong")][..]] {
            let (status, _, response) = request(&addr, "POST", "/v1/jobs", headers, &body);
            assert_eq!(status, 401, "{response}");
            assert!(response.contains("\"code\":\"unauthorized\""), "{response}");
        }
        // healthz stays open even with tokens configured.
        let (status, _, _) = request(&addr, "GET", "/healthz", &[], "");
        assert_eq!(status, 200);

        let (status, _, accepted) = request(
            &addr,
            "POST",
            "/v1/jobs",
            &[("Authorization", "Bearer sekrit")],
            &body,
        );
        assert_eq!(status, 202, "{accepted}");
        server.shutdown();
    });
}

#[test]
fn overload_is_shed_with_429_and_retry_after() {
    with_graph_file("overload", |path| {
        // One paused worker and a one-slot queue: the first submit fills the
        // queue, every further submit must be shed — deterministically, no
        // race on how fast the worker drains.
        let server = start_server(
            ServiceConfig {
                workers: 1,
                start_paused: true,
                cache_capacity: 0,
                admission: AdmissionControl {
                    max_queued: 1,
                    max_in_flight: usize::MAX,
                    per_tenant_quota: usize::MAX,
                },
                ..ServiceConfig::default()
            },
            AuthConfig::open(),
        );
        let addr = server.local_addr().to_string();
        let api = Arc::clone(server.api());
        let body = format!("{{\"graph\":\"{path}\",\"gamma\":0.8,\"min_size\":6}}");

        let (status, _, first) = request(&addr, "POST", "/v1/jobs", &[], &body);
        assert_eq!(status, 202, "{first}");

        let (status, head, shed) = request(&addr, "POST", "/v1/jobs", &[], &body);
        assert_eq!(status, 429, "{shed}");
        assert!(shed.contains("\"code\":\"overloaded\""), "{shed}");
        let retry_after = head
            .lines()
            .find_map(|line| line.strip_prefix("Retry-After: "))
            .expect("429 must carry Retry-After");
        assert!(retry_after.trim().parse::<u64>().unwrap() >= 1);

        // Un-pause: the queued job completes, and the service admits again.
        api.service().resume();
        let (status, _, view) = request(&addr, "GET", "/v1/jobs/1?wait_ms=30000", &[], "");
        assert_eq!(status, 200, "{view}");
        assert!(view.contains("\"outcome\":\"complete\""), "{view}");
        let (status, _, readmitted) = request(&addr, "POST", "/v1/jobs", &[], &body);
        assert_eq!(status, 202, "{readmitted}");
        server.shutdown();
    });
}

/// An observer that panics on the first raw report it gets.
struct PanickingSink;

impl QuasiCliqueSink for PanickingSink {
    fn report(&mut self, _members: Vec<VertexId>) {
        panic!("observer exploded");
    }
}

#[test]
fn a_panicking_job_answers_job_failed_and_the_listener_keeps_serving() {
    with_graph_file("panic", |path| {
        let server = start_server(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            AuthConfig::open(),
        );
        let addr = server.local_addr().to_string();
        let api = Arc::clone(server.api());
        let graph = Arc::new(qcm_gen::datasets::tiny_test_dataset(9).graph);
        let doomed = api
            .service()
            .submit(JobRequest::new(graph, 0.8, 6).stream(Box::new(PanickingSink)))
            .unwrap();

        let poll = format!("/v1/jobs/{doomed}?wait_ms=30000");
        let (status, _, failed) = request(&addr, "GET", &poll, &[], "");
        assert_eq!(status, 500, "{failed}");
        assert!(failed.contains("\"code\":\"job_failed\""), "{failed}");

        // The one worker survived the panic: the next job on the same
        // listener is admitted and completes.
        let body = format!("{{\"graph\":\"{path}\",\"gamma\":0.8,\"min_size\":6}}");
        let (status, _, next) = request(&addr, "POST", "/v1/jobs", &[], &body);
        assert_eq!(status, 202, "{next}");
        assert!(next.contains("\"job\":2"), "{next}");
        let (status, _, view) = request(&addr, "GET", "/v1/jobs/2?wait_ms=30000", &[], "");
        assert_eq!(status, 200, "{view}");
        assert!(view.contains("\"outcome\":\"complete\""), "{view}");
        assert_eq!(api.service().metrics().in_flight, 0);
        server.shutdown();
    });
}

#[test]
fn malformed_and_oversized_requests_leave_the_listener_sane() {
    let server = start_server(ServiceConfig::default(), AuthConfig::open());
    let addr = server.local_addr().to_string();

    // Garbage head: answered with a 400 JSON error, then the connection is
    // closed (framing is unknown after a malformed head).
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(b"echo hello\r\n\r\n").unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let (status, _, body) = parse_response(&response);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"bad_request\""), "{body}");

    // A body above the limit: rejected up front (413), not buffered.
    let (status, _, body) = request(
        &addr,
        "POST",
        "/v1/jobs",
        &[("Content-Length", "9999999")],
        "",
    );
    assert_eq!(status, 413, "{body}");

    // An unsupported framing scheme: 501, connection closed.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .write_all(b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        .unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let (status, _, _) = parse_response(&response);
    assert_eq!(status, 501);

    // Nesting deep enough to overflow a recursive parser's stack: a 400.
    let deep = "[".repeat(512 * 1024);
    let (status, _, body) = request(&addr, "POST", "/v1/jobs", &[], &deep);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"bad_request\""), "{body}");

    // After all of that, the listener still answers normal requests.
    let (status, _, health) = request(&addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200, "{health}");
    server.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let server = start_server(ServiceConfig::default(), AuthConfig::open());
    let addr = server.local_addr().to_string();

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    for round in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        // Fixed-size response: read until the known body arrives.
        let mut collected = Vec::new();
        let mut chunk = [0u8; 1024];
        while !String::from_utf8_lossy(&collected).contains("\"status\":\"ok\"") {
            let n = stream.read(&mut chunk).expect("keep-alive read");
            assert!(
                n > 0,
                "server closed a keep-alive connection at round {round}"
            );
            collected.extend_from_slice(&chunk[..n]);
        }
        let (status, head, _) = parse_response(&collected);
        assert_eq!(status, 200);
        assert!(head.contains("connection: keep-alive"), "{head}");
    }
    server.shutdown();
}

#[test]
fn job_reads_and_cancels_are_scoped_to_the_authenticated_tenant() {
    with_graph_file("scoped", |path| {
        // Paused service so the job stays alive; ids are sequential, so
        // without ownership checks tenant beta could simply enumerate them.
        let server = start_server(
            ServiceConfig {
                start_paused: true,
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
            AuthConfig::with_tokens([
                ("tok-a".to_string(), "alpha".to_string()),
                ("tok-b".to_string(), "beta".to_string()),
            ]),
        );
        let addr = server.local_addr().to_string();
        let body = format!("{{\"graph\":\"{path}\",\"gamma\":0.8,\"min_size\":6}}");

        let (status, _, submitted) = request(
            &addr,
            "POST",
            "/v1/jobs",
            &[("Authorization", "Bearer tok-a")],
            &body,
        );
        assert_eq!(status, 202, "{submitted}");
        assert!(submitted.contains("\"job\":1"), "{submitted}");

        // Another authenticated tenant gets the same answer as for a job
        // that never existed — read and cancel both.
        let beta = [("Authorization", "Bearer tok-b")];
        let (status, _, stolen) = request(&addr, "GET", "/v1/jobs/1", &beta, "");
        assert_eq!(status, 404, "{stolen}");
        assert!(stolen.contains("\"code\":\"unknown_job\""), "{stolen}");
        let (status, _, cancelled) = request(&addr, "DELETE", "/v1/jobs/1", &beta, "");
        assert_eq!(status, 404, "{cancelled}");
        assert!(
            cancelled.contains("\"code\":\"unknown_job\""),
            "{cancelled}"
        );

        // The owner still reads and cancels it.
        let alpha = [("Authorization", "Bearer tok-a")];
        let (status, _, view) = request(&addr, "GET", "/v1/jobs/1", &alpha, "");
        assert_eq!(status, 200, "{view}");
        assert!(view.contains("\"status\":\"queued\""), "{view}");
        let (status, _, gone) = request(&addr, "DELETE", "/v1/jobs/1", &alpha, "");
        assert_eq!(status, 200, "{gone}");
        assert!(gone.contains("\"status\":\"cancelled\""), "{gone}");
        server.shutdown();
    });
}

#[test]
fn graph_paths_are_confined_to_the_configured_root() {
    with_graph_file("rooted", |path| {
        let root = std::path::Path::new(path).parent().unwrap().to_path_buf();
        let api = Api::start(ServiceConfig::default(), AuthConfig::open()).with_graph_root(root);
        let server = Server::start(Arc::new(api), ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();

        // A relative path resolves under the root.
        let (status, _, ok) = request(
            &addr,
            "POST",
            "/v1/jobs",
            &[],
            "{\"graph\":\"graph.txt\",\"gamma\":0.8,\"min_size\":6}",
        );
        assert_eq!(status, 202, "{ok}");

        // Escapes — absolute paths outside the root, `..` traversal, and
        // registration — are typed errors with no filesystem probe.
        for body in [
            "{\"graph\":\"/etc/hostname\"}".to_string(),
            "{\"graph\":\"../../../etc/hostname\"}".to_string(),
        ] {
            let (status, _, denied) = request(&addr, "POST", "/v1/jobs", &[], &body);
            assert_eq!(status, 404, "{denied}");
            assert!(denied.contains("\"code\":\"unknown_graph\""), "{denied}");
            assert!(
                denied.contains("outside the configured graph root"),
                "{denied}"
            );
        }
        let (status, _, denied) = request(
            &addr,
            "PUT",
            "/v1/graphs/evil",
            &[],
            "{\"path\":\"/etc/hostname\"}",
        );
        assert_eq!(status, 404, "{denied}");
        server.shutdown();
    });
}

#[test]
fn a_trickling_client_is_cut_off_by_the_request_deadline() {
    // Tight absolute deadline, long per-read timeout: only the deadline can
    // explain the cutoff. Before the fix, each byte re-armed the 5s read
    // timeout and one client could pin a handler thread indefinitely.
    let server = Server::start(
        Arc::new(Api::start(ServiceConfig::default(), AuthConfig::open())),
        ServerConfig {
            workers: 2,
            read_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_millis(400),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Never-completing head, trickled with gaps well under read_timeout.
    stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    for _ in 0..6 {
        qcm_sync::thread::sleep(Duration::from_millis(150));
        if stream.write_all(b"X-Pad: y\r\n").is_err() {
            break; // server already hung up on us — that is the point
        }
    }
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    assert!(
        response.is_empty(),
        "deadline close must not fabricate a response: {:?}",
        String::from_utf8_lossy(&response)
    );

    // The handler thread is free again: normal requests still answer.
    let (status, _, health) = request(&addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200, "{health}");
    server.shutdown();
}

#[test]
fn concurrent_tenants_are_isolated_by_quota() {
    with_graph_file("tenants", |path| {
        // Paused service, per-tenant quota of 1: tenant alpha exhausts its
        // quota with one unfinished job; beta must still be admitted, and
        // alpha's rejection is the tenant-scoped quota code, not the global
        // overload code.
        let server = start_server(
            ServiceConfig {
                workers: 1,
                start_paused: true,
                cache_capacity: 0,
                admission: AdmissionControl {
                    max_queued: 64,
                    max_in_flight: usize::MAX,
                    per_tenant_quota: 1,
                },
                ..ServiceConfig::default()
            },
            AuthConfig::open(),
        );
        let addr = server.local_addr().to_string();
        let api = Arc::clone(server.api());
        let body = format!("{{\"graph\":\"{path}\",\"gamma\":0.8,\"min_size\":6}}");

        let (status, _, first) = request(
            &addr,
            "POST",
            "/v1/jobs",
            &[("X-Qcm-Tenant", "alpha")],
            &body,
        );
        assert_eq!(status, 202, "{first}");

        let (status, head, quota) = request(
            &addr,
            "POST",
            "/v1/jobs",
            &[("X-Qcm-Tenant", "alpha")],
            &body,
        );
        assert_eq!(status, 429, "{quota}");
        assert!(quota.contains("\"code\":\"quota_exceeded\""), "{quota}");
        assert!(quota.contains("alpha"), "{quota}");
        assert!(head.contains("Retry-After:"), "{head}");

        let (status, _, beta) = request(
            &addr,
            "POST",
            "/v1/jobs",
            &[("X-Qcm-Tenant", "beta")],
            &body,
        );
        assert_eq!(status, 202, "other tenants must be unaffected: {beta}");

        // Drain, then check both tenants' jobs completed under their own
        // names (cache off, so each mined independently).
        api.service().resume();
        for (job, tenant) in [(1, "alpha"), (2, "beta")] {
            let (status, _, view) = request(
                &addr,
                "GET",
                &format!("/v1/jobs/{job}?wait_ms=30000"),
                &[],
                "",
            );
            assert_eq!(status, 200, "{view}");
            assert!(view.contains(&format!("\"tenant\":\"{tenant}\"")), "{view}");
            assert!(view.contains("\"outcome\":\"complete\""), "{view}");
        }
        server.shutdown();
    });
}

#[test]
fn graph_registry_round_trip_and_named_submit() {
    with_graph_file("registry", |path| {
        let server = start_server(ServiceConfig::default(), AuthConfig::open());
        let addr = server.local_addr().to_string();

        let (status, _, put) = request(
            &addr,
            "PUT",
            "/v1/graphs/tiny",
            &[],
            &format!("{{\"path\":\"{path}\"}}"),
        );
        assert_eq!(status, 200, "{put}");
        assert!(put.contains("\"name\":\"tiny\""), "{put}");
        assert!(put.contains("\"fingerprint\":\"0x"), "{put}");

        let (status, _, list) = request(&addr, "GET", "/v1/graphs", &[], "");
        assert_eq!(status, 200);
        assert!(list.contains("\"tiny\""), "{list}");

        // Submitting by name resolves through the registry — no reload.
        let (status, _, submitted) = request(
            &addr,
            "POST",
            "/v1/jobs",
            &[],
            "{\"graph\":\"tiny\",\"gamma\":0.8,\"min_size\":6}",
        );
        assert_eq!(status, 202, "{submitted}");
        assert_eq!(
            server.api().graph_loads(),
            1,
            "named submit must not reload"
        );

        let (status, _, missing) = request(&addr, "GET", "/v1/jobs/99", &[], "");
        assert_eq!(status, 404, "{missing}");
        assert!(missing.contains("\"code\":\"unknown_job\""), "{missing}");
        server.shutdown();
    });
}

#[test]
fn a_burst_of_submits_naming_one_new_file_loads_it_once() {
    with_graph_file("burst", |path| {
        let server = start_server(ServiceConfig::default(), AuthConfig::open());
        let addr = server.local_addr().to_string();
        let body = format!("{{\"graph\":\"{path}\",\"gamma\":0.8,\"min_size\":6}}");
        let go = Arc::new(AtomicBool::new(false));
        let submitters: Vec<_> = (0..4)
            .map(|_| {
                let (addr, body, go) = (addr.clone(), body.clone(), go.clone());
                thread::spawn(move || {
                    // ordering: SeqCst — a start gate, no data rides on it.
                    while !go.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                    request(&addr, "POST", "/v1/jobs", &[], &body)
                })
            })
            .collect();
        // ordering: SeqCst — releases the gate above.
        go.store(true, Ordering::SeqCst);
        let mut answers = Vec::new();
        for submitter in submitters {
            let (status, _, submitted) = submitter.join().unwrap();
            assert_eq!(status, 202, "{submitted}");
            let job = submitted
                .split("\"job\":")
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next())
                .expect("job id");
            let (status, _, view) = request(
                &addr,
                "GET",
                &format!("/v1/jobs/{job}?wait_ms=30000"),
                &[],
                "",
            );
            assert_eq!(status, 200, "{view}");
            assert!(view.contains("\"outcome\":\"complete\""), "{view}");
            let maximal = view.split("\"num_maximal\":").nth(1).expect("num_maximal");
            answers.push(maximal.split([',', '}']).next().unwrap().to_string());
        }
        assert_eq!(server.api().graph_loads(), 1, "one file, one load");
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");
        // Naming the file afterwards reuses the one resident graph.
        let (status, _, put) = request(
            &addr,
            "PUT",
            "/v1/graphs/burst",
            &[],
            &format!("{{\"path\":\"{path}\"}}"),
        );
        assert_eq!(status, 200, "{put}");
        assert_eq!(server.api().graph_loads(), 1, "{put}");
        server.shutdown();
    });
}
