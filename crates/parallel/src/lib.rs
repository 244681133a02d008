//! # qcm-parallel — parallel quasi-clique mining on the reforged engine
//!
//! This crate is the codesign glue of the paper: the quasi-clique mining
//! algorithm of `qcm-core` expressed as a G-thinker application running on
//! the task engine of `qcm-engine`.
//!
//! * [`QuasiCliqueApp`] implements the two UDFs: `spawn` (Algorithm 4) and the
//!   three-iteration `compute` (Algorithms 5–7 build the task subgraph,
//!   Algorithms 8–10 mine/decompose it). It is also the one owner of the
//!   search's parameters on an engine run.
//! * The mine phase is `qcm-core`'s serial loop with a hand-off: once one is
//!   due, a surviving subtree becomes a subtask instead of a recursive call.
//!   [`DecompositionStrategy`] picks when — at once for a big task
//!   (Algorithm 8's size threshold), or after τ_time, the paper's
//!   **time-delayed task decomposition** (Algorithms 9–10).
//! * [`ParallelMiner`] is the one-call front end: configure γ, τ_size,
//!   τ_split, τ_time, the cluster shape and its transport, call
//!   [`ParallelMiner::mine`], get back the maximal quasi-cliques plus the
//!   engine metrics used to regenerate the paper's tables and figures. The
//!   same call runs live worker threads or, under
//!   [`qcm_engine::TransportFactory::Sim`], the deterministic fault
//!   simulator; a run that lost work publishes only sets it can prove
//!   maximal.
//!
//! ```
//! use qcm_core::MiningParams;
//! use qcm_engine::EngineConfig;
//! use qcm_parallel::ParallelMiner;
//! use qcm_graph::Graph;
//! use qcm_sync::Arc;
//!
//! let g = Arc::new(Graph::from_edges(9, [
//!     (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4),
//!     (1, 5), (5, 6), (2, 6), (3, 7), (7, 8), (3, 8),
//! ]).unwrap());
//! let miner = ParallelMiner::new(MiningParams::new(0.6, 5), EngineConfig::single_machine(4));
//! let output = miner.mine(g.clone());
//! assert_eq!(output.maximal.len(), 1);
//! ```
//!
//! Application code should normally go through the unified `qcm::Session`
//! front door in the `qcm` facade crate, which adds validation, deadlines,
//! cancellation and streaming on top of [`ParallelMiner`].

pub mod app;
pub mod iterations;
pub mod mine;
#[cfg(test)]
mod reference;
pub mod runner;
pub mod task;

pub use app::QuasiCliqueApp;
pub use mine::{DecompositionStrategy, MineOutcome};
pub use runner::{ParallelMiner, ParallelMiningOutput};
pub use task::{QCTask, TaskPhase};
