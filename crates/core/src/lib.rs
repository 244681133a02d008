//! # qcm-core — maximal γ-quasi-clique mining
//!
//! This crate implements the algorithmic half of the paper *"Scalable Mining
//! of Maximal Quasi-Cliques: An Algorithm-System Codesign Approach"* (PVLDB
//! 2020): the pruning rules (P1–P7), the iterative bound-based pruning
//! procedure (Algorithm 1), the recursive mining algorithm (Algorithm 2), a
//! Quick-style baseline, a brute-force oracle, and the maximality
//! post-processing.
//!
//! ## Quick start
//!
//! ```
//! use qcm_core::{MiningParams, SerialMiner};
//! use qcm_graph::Graph;
//!
//! // The illustrative graph of Figure 4 of the paper.
//! let g = Graph::from_edges(9, [
//!     (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4),
//!     (1, 5), (5, 6), (2, 6), (3, 7), (7, 8), (3, 8),
//! ]).unwrap();
//!
//! // Find all maximal 0.6-quasi-cliques with at least 5 vertices.
//! let output = SerialMiner::new(MiningParams::new(0.6, 5)).mine(&g);
//! assert_eq!(output.maximal.len(), 1); // {a, b, c, d, e}
//! ```
//!
//! Application code should normally go through the unified `qcm::Session`
//! front door in the `qcm` facade crate, which adds builder-time validation
//! ([`QcmError`]), deadlines and cancellation ([`CancelToken`]) and streaming
//! delivery ([`ResultSink`]) on top of these primitives.
//!
//! The parallel, task-based version of the algorithm runs on the reforged
//! G-thinker-style engine in `qcm-engine`; the serial and the parallel miner
//! both reuse the primitives exported here ([`iterative_bounding()`], [`recursive_mine()`],
//! [`MiningContext`], the bounds and rules modules), which is what the paper
//! means by algorithm–system codesign.

pub mod api;
pub mod bounds;
pub mod cancel;
pub mod config;
pub mod context;
pub mod cover;
pub mod critical;
pub mod degrees;
pub mod error;
pub mod fingerprint;
pub mod iterative_bounding;
pub mod maximality;
pub mod naive;
pub mod params;
pub mod path_degrees;
pub mod quasiclique;
pub mod quick;
pub mod recursive_mine;
pub mod results;
pub mod root_task;
pub mod rules;
pub mod scratch;
pub mod serial;
pub mod stats;
pub mod validate;

pub use api::{ApiError, ErrorCode, GraphInfo, JobView, SubmitRequest, SubmitResponse};
pub use cancel::{CancelReason, CancelToken, RunOutcome};
pub use config::PruneConfig;
pub use context::MiningContext;
pub use error::QcmError;
pub use fingerprint::QueryKey;
pub use iterative_bounding::iterative_bounding;
pub use maximality::remove_non_maximal;
pub use params::{Gamma, MiningParams};
pub use quasiclique::is_quasi_clique_local;
pub use quick::quick_mine;
pub use recursive_mine::{recursive_mine, two_hop_bits_into, HandOff, NoHandOff};
pub use results::{
    CandidateForwarder, CollectingSink, CountingSink, QuasiCliqueSet, QuasiCliqueSink, ResultSink,
};
pub use root_task::{CoreNumbering, Step, TaskAssembly};
pub use scratch::MiningScratch;
pub use serial::{MiningOutput, SerialMiner};
pub use stats::MiningStats;
pub use validate::{is_quasi_clique, is_valid_quasi_clique};
