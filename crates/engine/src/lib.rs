//! # qcm-engine — parallel quasi-clique mining on the reforged G-thinker engine
//!
//! This crate is the paper's algorithm–system codesign in one place: the
//! quasi-clique mining algorithm of `qcm-core` run as the task of a
//! task-based parallel graph-mining engine in the style of G-thinker, with the
//! three reforges Section 5 of the paper introduces for it:
//!
//! 1. a **global big-task queue** per machine, shared by all mining threads
//!    and popped with priority, so expensive tasks never suffer head-of-line
//!    blocking behind a single thread's local queue;
//! 2. **prioritised refill and spilling**: local/global queues spill batches
//!    of `C` tasks to disk when full and refill from spill files before
//!    spawning new roots, keeping the in-memory task pool bounded;
//! 3. **big-task stealing** between machines, driven by the idle: a
//!    machine with nothing to pop or spawn asks the machine with the most
//!    queued tasks for half of them, at most one batch.
//!
//! The application side:
//!
//! * [`QuasiCliqueApp`] holds the two UDFs: `spawn` (Algorithm 4) and the
//!   three-iteration `compute` (Algorithms 5–7 build the task subgraph,
//!   Algorithms 8–10 mine/decompose it), plus the big-task test against
//!   τ_split. It is also the one owner of the search's parameters on an
//!   engine run. Its task is [`QCTask`].
//! * The mine phase is `qcm-core`'s serial loop with a hand-off: once one is
//!   due, a surviving subtree becomes a subtask instead of a recursive call.
//!   [`DecompositionStrategy`] picks when — at once for a big task
//!   (Algorithm 8's size threshold), or after τ_time, the paper's
//!   **time-delayed task decomposition** (Algorithms 9–10).
//! * [`ParallelMiner`] is the one entry point: configure γ, τ_size, τ_split,
//!   τ_time, the cluster shape and its transport, call
//!   [`ParallelMiner::mine`], get back the maximal quasi-cliques plus the
//!   engine metrics used to regenerate the paper's tables and figures.
//!
//! The system side: the "cluster" is simulated in-process. Machines are
//! thread groups, the vertex table is hash-partitioned over them, remote
//! adjacency-list fetches go through a per-machine cache and are counted as
//! network traffic. The scheduling structure — which is what the paper's
//! scalability results depend on — exists once, in the crate-private
//! `machine` module: each machine's big-task lane, worker deques, spawn
//! cursor and steal-grant book, and the protocol steps over them (spawn a
//! batch, route, pop, one compute step, handle one [`EngineMsg`], ask
//! another machine for work when one runs dry — the one balancer between
//! machines), plus run set-up and metrics assembly. The configured
//! [`TransportFactory`] picks the driver that calls those steps. For
//! `InProc` it adds worker threads, blocking pulls through a per-machine
//! data service, an idle loop that asks for work, and termination by the
//! [`Termination`] counters. For `Sim` it adds a seeded virtual-time event
//! queue, the lossy [`SimTransport`], a fault script, split-phase parking of
//! tasks while their pulls are on the wire, grant retransmission, asks woken
//! by queue growth and re-sent after a timeout, and per-root respawn. A run
//! that lost work publishes only sets it can prove maximal. The README's
//! "Distribution & fault testing" section describes the transports.
//!
//! ```
//! use qcm_core::MiningParams;
//! use qcm_engine::{EngineConfig, ParallelMiner};
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
mod cluster;
pub mod codec;
pub mod config;
pub mod iterations;
mod machine;
pub mod metrics;
pub mod mine;
pub mod queue;
#[cfg(test)]
mod reference;
pub mod runner;
pub mod sim;
pub mod spill;
pub mod steal;
pub mod task;
pub mod termination;
pub mod transport;
pub mod vertex_table;

pub use app::QuasiCliqueApp;
pub use codec::EngineMsg;
pub use config::EngineConfig;
pub use metrics::{EngineMetrics, TaskTimeRecord};
pub use mine::{DecompositionStrategy, MineOutcome};
pub use runner::{ParallelMiner, ParallelMiningOutput};
pub use sim::{Fault, FaultEvent, Replay, SimConfig, SimTransport};
pub use steal::WorkerQueues;
pub use task::{Frontier, QCTask, TaskCodec, TaskPhase, TaskTimings, WorkerScratch};
pub use termination::{Termination, WorkDropped};
pub use transport::{
    Envelope, InProcTransport, Transport, TransportError, TransportFactory, TransportStats,
};
pub use vertex_table::{AdjList, PartitionedVertexTable, RemoteVertexCache};
