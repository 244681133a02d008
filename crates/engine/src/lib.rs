//! # qcm-engine — the reforged G-thinker task engine
//!
//! This crate is the system half of the paper's algorithm–system codesign: a
//! task-based parallel graph-mining engine in the style of G-thinker, with the
//! three reforges Section 5 of the paper introduces for quasi-clique mining:
//!
//! 1. a **global big-task queue** per machine, shared by all mining threads
//!    and popped with priority, so expensive tasks never suffer head-of-line
//!    blocking behind a single thread's local queue;
//! 2. **prioritised refill and spilling**: local/global queues spill batches
//!    of `C` tasks to disk when full and refill from spill files before
//!    spawning new roots, keeping the in-memory task pool bounded;
//! 3. **big-task stealing** between machines, driven by a master that
//!    periodically evens out pending big-task counts.
//!
//! The "cluster" is simulated in-process: machines are thread groups, the
//! vertex table is hash-partitioned over them, remote adjacency-list fetches
//! go through a per-machine cache and are counted as network traffic. The
//! scheduling structure — which is what the paper's scalability results
//! depend on — exists once, in the crate-private `machine` module: each
//! machine's big-task lane, worker deques, spawn cursor and steal-grant book,
//! and the protocol steps over them (spawn a batch, route, pop, one compute
//! step, handle one [`EngineMsg`], plan a balance move), plus run set-up and
//! metrics assembly. [`Cluster::run`] calls those steps from one of two
//! drivers, picked by the configured [`TransportFactory`]. For `InProc` it
//! adds worker threads, blocking pulls through a per-machine data service,
//! the balancer thread and termination by the [`Termination`] counters. For
//! `Sim` it adds a seeded virtual-time event queue, the lossy
//! [`SimTransport`], a fault script, split-phase parking of tasks while their
//! pulls are on the wire, grant retransmission and per-root respawn. Both
//! return one [`EngineOutput`]. The README's "Distribution & fault testing"
//! section describes the transports.
//!
//! Applications implement [`GThinkerApp`] (the `spawn`/`compute` UDF pair plus
//! the big-task classifier); the quasi-clique application lives in
//! `qcm-parallel`.

pub mod cluster;
pub mod codec;
pub mod config;
mod machine;
pub mod metrics;
pub mod queue;
pub mod sim;
pub mod spill;
pub mod steal;
pub mod task;
pub mod termination;
pub mod transport;
pub mod vertex_table;

pub use cluster::{Cluster, EngineOutput};
pub use codec::EngineMsg;
pub use config::EngineConfig;
pub use metrics::{EngineMetrics, TaskTimeRecord};
pub use sim::{Fault, FaultEvent, Replay, SimConfig, SimTransport};
pub use steal::WorkerQueues;
pub use task::{
    ComputeContext, Frontier, GThinkerApp, TaskCodec, TaskLabel, TaskTimings, WorkerScratch,
};
pub use termination::Termination;
pub use transport::{
    Envelope, InProcTransport, Transport, TransportError, TransportFactory, TransportStats,
};
pub use vertex_table::{AdjList, PartitionedVertexTable, RemoteVertexCache};
