//! # qcm — maximal quasi-clique mining (facade crate)
//!
//! This crate is the front door of the workspace that reproduces *"Scalable
//! Mining of Maximal Quasi-Cliques: An Algorithm-System Codesign Approach"*
//! (PVLDB 2020). The one type to know is [`Session`]: a fluent, validated
//! mining configuration with typed errors ([`QcmError`]), deadlines and
//! cancellation ([`CancelToken`]), an observer of the raw reports
//! ([`QuasiCliqueSink`]) and a unified result ([`MiningReport`]) over both
//! execution backends.
//!
//! ## Quick start
//!
//! ```
//! use qcm::prelude::*;
//! use qcm_sync::Arc;
//!
//! // Generate a small graph with two planted dense communities.
//! let dataset = qcm::gen::datasets::tiny_test_dataset(7);
//! let graph = Arc::new(dataset.graph.clone());
//!
//! // One session, two backends, identical results.
//! let serial = Session::builder()
//!     .gamma(dataset.spec.gamma)
//!     .min_size(dataset.spec.min_size)
//!     .build()?
//!     .run(&graph)?;
//! let parallel = Session::builder()
//!     .gamma(dataset.spec.gamma)
//!     .min_size(dataset.spec.min_size)
//!     .backend(Backend::parallel(4, 1))
//!     .build()?
//!     .run(&graph)?;
//! assert_eq!(serial.maximal, parallel.maximal);
//! assert!(serial.is_complete());
//! # Ok::<(), qcm::QcmError>(())
//! ```
//!
//! ## Deadlines, cancellation, streaming
//!
//! ```
//! use qcm::prelude::*;
//! use qcm_sync::Arc;
//! use std::time::Duration;
//!
//! let dataset = qcm::gen::datasets::tiny_test_dataset(7);
//! let graph = Arc::new(dataset.graph.clone());
//!
//! // A deadline-bound run returns a *partial*, well-labelled report.
//! let session = Session::builder()
//!     .gamma(dataset.spec.gamma)
//!     .min_size(dataset.spec.min_size)
//!     .deadline(Duration::ZERO)
//!     .build()?;
//! let report = session.run(&graph)?;
//! assert_eq!(report.outcome, RunOutcome::DeadlineExceeded);
//!
//! // Streaming: every raw candidate goes to a caller-supplied
//! // QuasiCliqueSink; the maximal sets are the report's.
//! let session = Session::builder()
//!     .gamma(dataset.spec.gamma)
//!     .min_size(dataset.spec.min_size)
//!     .build()?;
//! let mut candidates: Vec<Vec<VertexId>> = Vec::new();
//! let report = session.run_streaming(&graph, &mut candidates)?;
//! assert_eq!(candidates.len() as u64, report.raw_reported);
//! # Ok::<(), qcm::QcmError>(())
//! ```
//!
//! `session.cancel_token()` hands out a clone-able [`CancelToken`] that stops
//! an in-flight run from another thread.
//!
//! ## Layers
//!
//! The underlying crates remain available for advanced use:
//!
//! * [`graph`] — graph substrate ([`graph::Graph`], k-core, I/O, stable
//!   content hashing);
//! * [`gen`] — synthetic dataset generators (including the stand-ins for the
//!   paper's eight evaluation graphs);
//! * [`core`] — the serial mining algorithm, pruning rules and baselines;
//! * [`engine`] — the paper's full system: the reforged G-thinker-style task
//!   engine and the parallel miner ([`engine::ParallelMiner`]) that runs the
//!   quasi-clique task on it.
//!
//! Above this facade sits `qcm-service`: an embeddable multi-tenant mining
//! *job service* that executes submissions as [`Session`] runs on a worker
//! pool, memoises completed answers in a result cache keyed by [`QueryKey`]
//! (graph content hash + parameters + pruning config) and sheds load through
//! admission control. The CLI exposes it as `qcm serve`.
//!
//! The runnable examples in `examples/` (quickstart, community detection,
//! protein complexes, parallel cluster, hyperparameter sweep) demonstrate the
//! API on realistic scenarios; the `qcm-bench` crate regenerates every table
//! and figure of the paper.
//!
//! ## Distribution & fault testing
//!
//! `Backend::Parallel` carries the engine's [`TransportFactory`]: the default
//! in-process transport, a strict serialising variant, or
//! [`TransportFactory::Sim`] — a deterministic discrete-event fault simulator
//! that replays a seeded 64-machine crash/straggler/partition scenario
//! byte-identically. The same `ParallelMiner` runs all three; the transport
//! picks the engine's driver. See the README's "Distribution & fault testing"
//! section and `tests/fault_scenarios.rs`.

pub mod session;

pub use qcm_core as core;
pub use qcm_engine as engine;
pub use qcm_gen as gen;
pub use qcm_graph as graph;

pub use qcm_core::{CancelReason, CancelToken, QcmError, QuasiCliqueSink, QueryKey, RunOutcome};
pub use qcm_engine::{Fault, FaultEvent, SimConfig, TransportFactory};
pub use qcm_graph::{IndexSpec, NeighborhoodIndex, VertexBitSet};
pub use qcm_obs::{SpanKind, Trace, TraceConfig};
pub use session::{Backend, BackendStats, MiningReport, PreparedGraph, Session, SessionBuilder};

/// The most commonly used types and functions in one import.
pub mod prelude {
    pub use crate::{
        Backend, BackendStats, CancelReason, CancelToken, MiningReport, QcmError, QuasiCliqueSink,
        RunOutcome, Session, SessionBuilder,
    };
    pub use crate::{Fault, FaultEvent, SimConfig, TransportFactory};
    pub use crate::{SpanKind, Trace, TraceConfig};
    pub use qcm_core::api::{
        ApiError, ErrorCode, GraphInfo, JobView, SubmitRequest, SubmitResponse, ERROR_CODE_TABLE,
    };
    pub use qcm_core::{
        quick_mine, Gamma, MiningOutput, MiningParams, MiningStats, PruneConfig, QuasiCliqueSet,
        QueryKey, SerialMiner,
    };
    pub use qcm_engine::{
        DecompositionStrategy, EngineConfig, EngineMetrics, ParallelMiner, ParallelMiningOutput,
    };
    pub use qcm_gen::{DatasetSpec, PlantedGraphSpec, SyntheticDataset};
    pub use qcm_graph::{Graph, GraphBuilder, GraphStats, VertexId};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use qcm_sync::Arc;

    #[test]
    fn facade_reexports_are_usable_together() {
        let dataset = crate::gen::datasets::tiny_test_dataset(3);
        let graph = Arc::new(dataset.graph.clone());
        let base = Session::builder()
            .gamma(dataset.spec.gamma)
            .min_size(dataset.spec.min_size);
        let serial = base.clone().build().unwrap().run(&graph).unwrap();
        let parallel = base
            .backend(Backend::parallel(2, 1))
            .build()
            .unwrap()
            .run(&graph)
            .unwrap();
        assert_eq!(serial.maximal, parallel.maximal);
        assert!(
            !serial.maximal.is_empty(),
            "planted communities must be found"
        );
    }
}
