//! # qcm-graph — graph substrate for the quasi-clique miner
//!
//! This crate provides the graph data structures and primitives that the
//! quasi-clique mining algorithms and the task engine are built on:
//!
//! * [`Graph`] — an immutable, CSR-backed simple undirected graph with sorted
//!   adjacency lists (binary-searchable edge queries).
//! * [`GraphBuilder`] — incremental construction with de-duplication,
//!   self-loop removal and vertex-id compaction.
//! * [`kcore`] — [`Peel`], the O(|E|) peeling cascade of Batagelj & Zaversnik
//!   behind every application of the size-threshold pruning rule (P2) of the
//!   paper, and the suffix-core walk on it that picks the roots able to hold
//!   a result.
//! * [`subgraph`] — induced subgraphs and the [`subgraph::LocalGraph`]
//!   representation that mining tasks carry around (local index space with a
//!   mapping back to global vertex ids).
//! * [`traversal`] — BFS, two-hop neighborhoods (the `B(v)` of the paper),
//!   connected components.
//! * [`bitset`] — fixed-capacity [`VertexBitSet`] with word-parallel set
//!   operations, the scratch type of the bitset rows and the mining kernels.
//! * [`neighborhoods`] — the [`IndexSpec`] row policy of task subgraphs, the
//!   process-wide [`neighborhoods::perf`] counters the benchmark pipeline
//!   reports, and [`NeighborhoodIndex`] (CSR + bitset rows for high-degree
//!   vertices over a whole graph), which only the benchmark of record builds.
//! * [`io`] — SNAP-style edge-list parsing and writing, plus a checksummed
//!   binary snapshot format.
//! * [`hash`] — stable FNV-1a hashing behind snapshot checksums and the
//!   [`Graph::content_hash`] fingerprint that keys the service result cache.
//! * [`stats`] — degree distributions and summary statistics used by the
//!   experiment harness.
//!
//! Vertex identifiers are [`VertexId`] (a `u32` new-type): the paper's
//! evaluation graphs top out at ~1.4M vertices and 32-bit ids keep adjacency
//! lists and task subgraphs compact.

pub mod bitset;
pub mod builder;
pub mod error;
pub mod graph;
pub mod hash;
pub mod io;
pub mod kcore;
mod lanes;
pub mod neighborhoods;
pub mod stats;
pub mod subgraph;
pub mod traversal;
pub mod vertex;

pub use bitset::VertexBitSet;
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::Graph;
pub use hash::Fnv1a64;
pub use kcore::{core_numbers, Peel};
pub use neighborhoods::{IndexSpec, NeighborhoodIndex};
pub use stats::GraphStats;
pub use subgraph::{IdRanks, LocalGraph, SubgraphScratch};
pub use vertex::VertexId;

/// Convenience result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
