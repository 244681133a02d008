//! Round-trip tests for the observability pipeline: a traced `Session` run
//! must yield a `Trace` whose Chrome export parses back as well-formed JSON
//! (via `qcm_obs::json`, the workspace's own parser)
//! with every span kind intact and zero dropped events.

use qcm::prelude::*;
use qcm_obs::json::Json;
use qcm_sync::{Arc, Mutex};

/// The span recorder is a process-wide singleton: concurrent traced runs in
/// one test binary would steal it from each other (the loser's report gets
/// `trace: None`), and a trace holds every span the process records while
/// it lasts, an untraced run's spans included. One lock serialises every
/// test here that mines.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn planted() -> Arc<Graph> {
    let spec = PlantedGraphSpec {
        num_vertices: 300,
        background_avg_degree: 4.0,
        background_beta: 2.5,
        background_max_degree: 30.0,
        // Big enough that both machines of a two-machine run own a root that
        // spawns: `spawn` wants k = 6 larger neighbours, so a community yields
        // a task for each of its members but the six largest.
        community_sizes: vec![12, 11],
        community_density: 0.95,
        seed: 1234,
    };
    let (graph, _) = qcm::gen::plant_quasi_cliques(&spec);
    Arc::new(graph)
}

fn traced_run(threads: usize, machines: usize) -> (Trace, usize) {
    let graph = planted();
    let report = Session::builder()
        .gamma(0.8)
        .min_size(8)
        .tracing(TraceConfig::default())
        .backend(Backend::parallel(threads, machines))
        .build()
        .unwrap()
        .run(&graph)
        .unwrap();
    let trace = report
        .trace
        .expect("recorder was free, so the traced session must yield a trace");
    (trace, report.maximal.len())
}

#[test]
fn traced_session_records_the_span_taxonomy() {
    let _serialised = RECORDER_LOCK.lock();
    let (trace, found) = traced_run(2, 2);
    assert!(found > 0, "the planted communities must be mined");
    assert_eq!(trace.dropped, 0, "default capacity must not drop spans");
    assert_eq!(trace.count(SpanKind::Run), 1, "exactly one run span");
    assert_eq!(
        trace.count(SpanKind::KCore),
        1,
        "one peel before the engine"
    );
    assert!(trace.count(SpanKind::MinePhase) >= 1);
    assert!(trace.count(SpanKind::Task) >= 1);
    assert_eq!(
        trace.count(SpanKind::Finalize),
        1,
        "one post-processing pass after the engine"
    );
    // Every span closed before `finish_recording`, so durations and
    // containment are coherent: each non-run span falls inside the run span.
    let run = trace
        .spans
        .iter()
        .find(|s| s.kind == SpanKind::Run)
        .unwrap();
    let run_end = run.start_us + run.dur_us;
    for span in &trace.spans {
        assert!(
            span.start_us >= run.start_us && span.start_us + span.dur_us <= run_end,
            "{:?} span escapes the run interval",
            span.kind
        );
    }
}

#[test]
fn untraced_session_reports_no_trace() {
    // Its spans would land in a concurrent traced test's trace.
    let _serialised = RECORDER_LOCK.lock();
    let graph = planted();
    let report = Session::builder()
        .gamma(0.8)
        .min_size(8)
        .build()
        .unwrap()
        .run(&graph)
        .unwrap();
    assert!(report.trace.is_none());
}

#[test]
fn chrome_export_parses_back_wellformed() {
    let _serialised = RECORDER_LOCK.lock();
    let (trace, _) = traced_run(2, 2);
    let rendered = qcm_obs::chrome::render(&trace);
    let json = Json::parse(&rendered).expect("chrome export must be valid JSON");

    let events = json
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("top-level traceEvents array");
    // Per-machine metadata lanes plus one X event per span.
    let (mut meta, mut complete) = (0usize, 0usize);
    let mut mine_phase_events = 0usize;
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).expect("ph field");
        assert!(event.get("pid").and_then(Json::as_f64).is_some());
        assert!(event.get("tid").and_then(Json::as_f64).is_some());
        let name = event.get("name").and_then(Json::as_str).expect("name");
        match ph {
            "M" => {
                meta += 1;
                assert_eq!(name, "process_name");
                assert!(event
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("machine ")));
            }
            "X" => {
                complete += 1;
                assert!(event.get("ts").and_then(Json::as_f64).is_some());
                assert!(event.get("dur").and_then(Json::as_f64).is_some());
                if name == "mine_phase" {
                    mine_phase_events += 1;
                }
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert_eq!(complete, trace.spans.len(), "one X event per span");
    assert!(meta >= 2, "two simulated machines need two named lanes");
    assert!(mine_phase_events >= 1, "mine_phase spans must export");
}
