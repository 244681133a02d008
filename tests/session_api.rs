//! Workspace-level tests of the unified `qcm::Session` front door: builder
//! validation, serial-vs-parallel equivalence on the planted datasets,
//! deadline/cancellation semantics (typed partial reports, never panics or
//! blocks) and streaming delivery.

use qcm::prelude::*;
use qcm_sync::Arc;
use std::time::Duration;

fn planted() -> (Arc<Graph>, SessionBuilder) {
    let spec = PlantedGraphSpec {
        num_vertices: 400,
        background_avg_degree: 5.0,
        background_beta: 2.5,
        background_max_degree: 40.0,
        community_sizes: vec![10, 9, 8],
        community_density: 0.95,
        seed: 99,
    };
    let (graph, _) = qcm::gen::plant_quasi_cliques(&spec);
    (Arc::new(graph), Session::builder().gamma(0.8).min_size(8))
}

#[test]
fn builder_validation_returns_typed_errors() {
    // γ out of range (both sides, plus non-finite values).
    for gamma in [0.0, -1.0, 1.0001, f64::NAN, f64::NEG_INFINITY] {
        let err = Session::builder().gamma(gamma).build().unwrap_err();
        let QcmError::InvalidConfig(msg) = err else {
            panic!("gamma {gamma}: expected InvalidConfig");
        };
        assert!(msg.contains("gamma"), "{msg}");
    }
    // Degenerate min_size.
    for min_size in [0, 1] {
        let err = Session::builder().min_size(min_size).build().unwrap_err();
        let QcmError::InvalidConfig(msg) = err else {
            panic!("min_size {min_size}: expected InvalidConfig");
        };
        assert!(msg.contains("min_size"), "{msg}");
    }
    // Zero threads / zero machines on the parallel backend.
    let err = Session::builder()
        .backend(Backend::parallel(0, 2))
        .build()
        .unwrap_err();
    assert!(matches!(err, QcmError::InvalidConfig(_)));
    let err = Session::builder()
        .backend(Backend::parallel(2, 0))
        .build()
        .unwrap_err();
    assert!(matches!(err, QcmError::InvalidConfig(_)));
    // The boundary values are accepted.
    assert!(Session::builder()
        .gamma(1.0)
        .min_size(2)
        .backend(Backend::parallel(1, 1))
        .build()
        .is_ok());
}

#[test]
fn serial_and_parallel_backends_are_equivalent_on_planted_data() {
    let (graph, base) = planted();
    let serial = base
        .clone()
        .backend(Backend::Serial)
        .build()
        .unwrap()
        .run(&graph)
        .unwrap();
    assert!(!serial.maximal.is_empty(), "planted communities expected");
    assert!(serial.is_complete());
    for (threads, machines) in [(1, 1), (4, 1), (2, 3)] {
        let parallel = base
            .clone()
            .backend(Backend::parallel(threads, machines))
            .build()
            .unwrap()
            .run(&graph)
            .unwrap();
        assert_eq!(
            parallel.maximal, serial.maximal,
            "mismatch at {threads} threads × {machines} machines"
        );
        assert!(parallel.is_complete());
    }
}

#[test]
fn deadline_hit_returns_typed_partial_report() {
    let (graph, base) = planted();
    let complete = base.clone().build().unwrap().run(&graph).unwrap();
    for backend in [Backend::Serial, Backend::parallel(2, 1)] {
        let report = base
            .clone()
            .backend(backend.clone())
            .deadline(Duration::ZERO)
            .build()
            .unwrap()
            .run(&graph)
            .unwrap();
        assert_eq!(report.outcome, RunOutcome::DeadlineExceeded, "{backend:?}");
        assert!(!report.is_complete());
        // With a zero deadline the run deterministically explores nothing, so
        // the partial set is empty (and trivially a subset of the complete
        // one). Note that in general an interrupted run may report sets that
        // a complete run would have replaced with supersets.
        for members in report.maximal.iter() {
            assert!(complete.maximal.contains(members), "{backend:?}");
        }
        // into_result converts the label into the typed error.
        assert!(matches!(
            report.into_result().unwrap_err(),
            QcmError::DeadlineExceeded
        ));
    }
}

#[test]
fn cancel_token_stops_runs_with_cancelled_outcome() {
    let (graph, base) = planted();
    let session = base.build().unwrap();
    let token = session.cancel_token();
    token.cancel();
    let report = session.run(&graph).unwrap();
    assert_eq!(report.outcome, RunOutcome::Cancelled);
    assert!(matches!(
        report.into_result().unwrap_err(),
        QcmError::Cancelled
    ));
}

#[test]
fn external_cancel_token_is_shared_across_sessions() {
    let (graph, base) = planted();
    let shared_token = CancelToken::new();
    let a = base
        .clone()
        .cancel_token(shared_token.clone())
        .build()
        .unwrap();
    let b = base.cancel_token(shared_token.clone()).build().unwrap();
    shared_token.cancel();
    assert_eq!(a.run(&graph).unwrap().outcome, RunOutcome::Cancelled);
    assert_eq!(b.run(&graph).unwrap().outcome, RunOutcome::Cancelled);
}

#[test]
fn generous_deadline_completes_normally() {
    let (graph, base) = planted();
    let report = base
        .deadline(Duration::from_secs(3600))
        .build()
        .unwrap()
        .run(&graph)
        .unwrap();
    assert_eq!(report.outcome, RunOutcome::Complete);
    assert!(report.into_result().is_ok());
}

#[test]
fn streaming_run_matches_plain_run_and_orders_maximal_results() {
    let (graph, base) = planted();
    let session = base.build().unwrap();
    let plain = session.run(&graph).unwrap();
    let mut sink = CollectingSink::default();
    let streamed = session.run_streaming(&graph, &mut sink).unwrap();
    assert_eq!(plain.maximal, streamed.maximal);
    assert_eq!(sink.candidates, streamed.raw_reported);
    // on_maximal fires once per final result, in canonical order.
    let from_sink: QuasiCliqueSet = sink.maximal.iter().cloned().collect();
    assert_eq!(from_sink, streamed.maximal);
    let mut sorted = sink.maximal.clone();
    sorted.sort();
    assert_eq!(sorted, sink.maximal, "maximal stream must be ordered");
}

#[test]
fn strict_transport_agrees_with_default_in_proc() {
    let (graph, base) = planted();
    let default_run = base
        .clone()
        .backend(Backend::parallel(2, 2))
        .build()
        .unwrap()
        .run(&graph)
        .unwrap();
    let strict_run = base
        .backend(Backend::Parallel {
            threads: 2,
            machines: 2,
            transport: TransportFactory::strict(),
        })
        .build()
        .unwrap()
        .run(&graph)
        .unwrap();
    assert_eq!(default_run.maximal, strict_run.maximal);
    assert!(strict_run.is_complete());
}

#[test]
fn sim_transport_matches_serial_and_replays_deterministically() {
    let (graph, base) = planted();
    let serial = base.clone().build().unwrap().run(&graph).unwrap();
    let session = base
        .backend(Backend::Parallel {
            threads: 1,
            machines: 3,
            transport: TransportFactory::Sim(SimConfig::new(7)),
        })
        .build()
        .unwrap();
    let first = session.run(&graph).unwrap();
    assert_eq!(first.outcome, RunOutcome::Complete);
    assert_eq!(first.maximal, serial.maximal);
    // Virtual time is reported through the engine metrics.
    let metrics = first.engine_metrics().expect("parallel stats");
    assert!(metrics.virtual_time.is_some());
    // A second run of the same session replays the identical result.
    let again = session.run(&graph).unwrap();
    assert_eq!(again.maximal, first.maximal);
}
