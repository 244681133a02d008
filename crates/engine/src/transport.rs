//! Pluggable message passing between machines.
//!
//! Every cross-machine interaction of the engine — vertex-table pulls and
//! responses, Figure-8 steal requests/grants/acks, shutdown — travels as an [`EngineMsg`] through a [`Transport`]. Same-machine worker
//! deques stay shared-memory; only the machine-to-machine edges go through
//! the trait, which is exactly the boundary a real cluster deployment would
//! replace with sockets.
//!
//! Two implementations ship with the engine, and [`TransportFactory`] picks
//! one per run — and with it the driver:
//!
//! * [`InProcTransport`] — machines are thread groups in one address space,
//!   driven by live worker threads (the `cluster` module). The default
//!   configuration preserves the historical zero-copy fast path (owners'
//!   adjacency slices are read directly through the shared
//!   [`PartitionedVertexTable`]); *strict* mode disables that and forces every
//!   pull through a full [`EngineMsg`] wire-form round trip, so the codec path
//!   is exercised under the live multi-threaded engine.
//! * [`crate::sim::SimTransport`] — a deterministic discrete-event simulator
//!   with per-link latency, message drop, node crash + restart and a seeded
//!   event log, driven in virtual time (see [`crate::sim`]).
//!
//! The in-process mailboxes are plain `Mutex<VecDeque<_>>` queues — the
//! engine's workers poll them from their scheduling loop, which is the same
//! discipline they already use for the task queues.

use crate::codec::EngineMsg;
use crate::sim::SimConfig;
use crate::vertex_table::PartitionedVertexTable;
use qcm_graph::VertexId;
use qcm_sync::atomic::{AtomicU32, AtomicU64, Ordering};
use qcm_sync::{Arc, Mutex, OnceLock};
use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

/// Index of a machine (a vertex-table partition owner).
pub type MachineId = usize;

/// The in-memory payload of a successful pull: `(vertex, adjacency)` pairs.
pub type PullReply = Vec<(VertexId, Arc<Vec<VertexId>>)>;

/// Why a transport operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// No response arrived within the caller's timeout (the request or the
    /// response was lost, or the peer is down/slow).
    Timeout,
    /// The destination machine is not part of this transport.
    Closed,
    /// The operation is not supported by this implementation (e.g. blocking
    /// pulls on the discrete-event simulator, which is single-threaded and
    /// uses split-phase pulls instead).
    Unsupported,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Timeout => write!(f, "request timed out"),
            TransportError::Closed => write!(f, "destination machine is not reachable"),
            TransportError::Unsupported => write!(f, "operation unsupported by this transport"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A received message together with its sender.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// The sending machine.
    pub from: MachineId,
    /// The message.
    pub msg: EngineMsg,
}

/// Counters every transport keeps; folded into `EngineMetrics` after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages accepted by [`Transport::send`] (including pull round trips).
    pub messages_sent: u64,
    /// Messages dropped in flight (fault injection / simulated loss).
    pub messages_dropped: u64,
    /// Completed request/response pull round trips.
    pub pull_round_trips: u64,
    /// Serialized bytes moved through the wire form (0 on the zero-copy
    /// fast path, which never serialises).
    pub wire_bytes: u64,
}

/// Message passing between the engine's machines.
///
/// Implementations must be cheap to share (`Arc<dyn Transport>`) and safe to
/// call from every worker thread concurrently.
pub trait Transport: Send + Sync {
    /// Number of machines connected by this transport.
    fn machines(&self) -> usize;

    /// Called once per run with the partitioned vertex table, before any
    /// worker starts. Transports that answer pulls themselves (the in-process
    /// data service) keep a handle; others ignore it.
    fn bind(&self, _table: &PartitionedVertexTable) {}

    /// Sends `msg` from `from` to `to`'s mailbox. One-way messages never
    /// block; delivery is asynchronous.
    fn send(&self, from: MachineId, to: MachineId, msg: EngineMsg) -> Result<(), TransportError>;

    /// Pops the next message addressed to `machine`, if any.
    fn try_recv(&self, machine: MachineId) -> Option<Envelope>;

    /// Synchronous pull of adjacency lists from their owner: sends a
    /// [`EngineMsg::PullRequest`] and waits up to `timeout` for the matching
    /// [`EngineMsg::PullResponse`]. Retry policy lives in the caller (the
    /// data service), so one call is exactly one attempt.
    fn pull(
        &self,
        from: MachineId,
        owner: MachineId,
        vertices: &[VertexId],
        timeout: Duration,
    ) -> Result<PullReply, TransportError>;

    /// True when requesters may read owners' partitions directly through the
    /// shared vertex table — the zero-copy fast path of the in-process
    /// transport. Strict and simulated transports return false.
    fn shared_memory(&self) -> bool {
        false
    }

    /// Counters accumulated so far.
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

/// Selects the transport of a run, and with it the driver; the
/// engine-config-level selector.
///
/// `EngineConfig` carries a factory rather than a live `Arc<dyn Transport>`
/// so configs stay `Clone + Debug` and each run gets a fresh transport
/// (mailboxes and counters zeroed).
#[derive(Clone, Debug, PartialEq)]
pub enum TransportFactory {
    /// The in-process transport (machines are thread groups).
    InProc {
        /// Disable the fast path: every pull round-trips through the
        /// [`EngineMsg`] wire form.
        strict: bool,
        /// Fault injection: drop this many pull attempts before delivering
        /// any (each dropped attempt times out and is retried by the data
        /// service).
        drop_first_pulls: u32,
    },
    /// The deterministic discrete-event fault simulator: the run executes in
    /// virtual time under the scenario in [`SimConfig`].
    Sim(SimConfig),
}

impl Default for TransportFactory {
    fn default() -> Self {
        TransportFactory::InProc {
            strict: false,
            drop_first_pulls: 0,
        }
    }
}

impl TransportFactory {
    /// The default zero-copy in-process transport.
    pub fn in_proc() -> Self {
        TransportFactory::default()
    }

    /// The serialising in-process transport (no shared-memory fast path).
    pub fn strict() -> Self {
        TransportFactory::InProc {
            strict: true,
            drop_first_pulls: 0,
        }
    }

    /// Arms pull-drop fault injection on the in-process transport (testing).
    /// The simulator's losses come from its [`SimConfig`], so `Sim` is
    /// returned unchanged.
    pub fn with_pull_drops(mut self, drops: u32) -> Self {
        if let TransportFactory::InProc {
            drop_first_pulls, ..
        } = &mut self
        {
            *drop_first_pulls = drops;
        }
        self
    }
}

/// In-process transport: per-machine mailboxes in one address space.
///
/// In the default (non-strict) configuration [`Transport::shared_memory`]
/// returns true and the data service reads owners' partitions directly — the
/// historical zero-copy behaviour. Strict mode answers pulls by round-tripping
/// request and response through their wire forms, so the full protocol runs
/// under the live engine. Pulls are answered synchronously by the transport
/// itself (the per-machine *data-serving* role G-thinker assigns to dedicated
/// comm threads), which keeps mining workers free of mutual pull blocking.
pub struct InProcTransport {
    machines: usize,
    strict: bool,
    inboxes: Vec<Mutex<VecDeque<Envelope>>>,
    table: OnceLock<PartitionedVertexTable>,
    next_token: AtomicU64,
    drop_pulls: AtomicU32,
    messages_sent: AtomicU64,
    messages_dropped: AtomicU64,
    pull_round_trips: AtomicU64,
    wire_bytes: AtomicU64,
}

impl InProcTransport {
    /// Creates the transport; `drop_first_pulls` pull attempts are lost
    /// before any succeed (fault injection).
    pub fn new(machines: usize, strict: bool, drop_first_pulls: u32) -> Self {
        InProcTransport {
            machines: machines.max(1),
            strict,
            inboxes: (0..machines.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            table: OnceLock::new(),
            next_token: AtomicU64::new(1),
            drop_pulls: AtomicU32::new(drop_first_pulls),
            messages_sent: AtomicU64::new(0),
            messages_dropped: AtomicU64::new(0),
            pull_round_trips: AtomicU64::new(0),
            wire_bytes: AtomicU64::new(0),
        }
    }

    /// Serves a pull against the bound table, as the owner would.
    fn serve(&self, vertices: &[VertexId]) -> Result<PullReply, TransportError> {
        let table = self.table.get().ok_or(TransportError::Closed)?;
        Ok(vertices
            .iter()
            .map(|&v| (v, Arc::new(table.adjacency(v).to_vec())))
            .collect())
    }

    /// Consumes one armed pull drop, if any remain.
    fn take_drop(&self) -> bool {
        self.drop_pulls
            // ordering: Relaxed — the fault budget only needs atomic decrement;
            // it guards no other memory.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }
}

impl Transport for InProcTransport {
    fn machines(&self) -> usize {
        self.machines
    }

    fn bind(&self, table: &PartitionedVertexTable) {
        let _ = self.table.set(table.clone());
    }

    fn send(&self, from: MachineId, to: MachineId, msg: EngineMsg) -> Result<(), TransportError> {
        if to >= self.machines {
            return Err(TransportError::Closed);
        }
        // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.inboxes[to].lock().push_back(Envelope { from, msg });
        Ok(())
    }

    fn try_recv(&self, machine: MachineId) -> Option<Envelope> {
        self.inboxes.get(machine)?.lock().pop_front()
    }

    fn pull(
        &self,
        _from: MachineId,
        owner: MachineId,
        vertices: &[VertexId],
        _timeout: Duration,
    ) -> Result<PullReply, TransportError> {
        if owner >= self.machines {
            return Err(TransportError::Closed);
        }
        if self.take_drop() {
            // The armed loss swallows this attempt; the caller observes it as
            // a timeout (without sleeping the wall-clock out in tests).
            // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
            self.messages_dropped.fetch_add(1, Ordering::Relaxed);
            return Err(TransportError::Timeout);
        }
        // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
        self.messages_sent.fetch_add(2, Ordering::Relaxed); // request + response
        let reply = if self.strict {
            // Full wire-form round trip: exactly the bytes a socket would
            // carry, including the re-materialised adjacency lists.
            // ordering: Relaxed — unique pull tokens only need RMW atomicity.
            let token = self.next_token.fetch_add(1, Ordering::Relaxed);
            let request = EngineMsg::PullRequest {
                token,
                vertices: vertices.to_vec(),
            }
            .to_wire();
            let decoded_req =
                EngineMsg::decode(&mut request.as_slice()).ok_or(TransportError::Closed)?;
            let EngineMsg::PullRequest { token, vertices } = decoded_req else {
                return Err(TransportError::Closed);
            };
            let response = EngineMsg::PullResponse {
                token,
                lists: self.serve(&vertices)?,
            }
            .to_wire();
            self.wire_bytes
                // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
                .fetch_add((request.len() + response.len()) as u64, Ordering::Relaxed);
            let EngineMsg::PullResponse { lists, .. } =
                EngineMsg::decode(&mut response.as_slice()).ok_or(TransportError::Closed)?
            else {
                return Err(TransportError::Closed);
            };
            lists
        } else {
            self.serve(vertices)?
        };
        // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
        self.pull_round_trips.fetch_add(1, Ordering::Relaxed);
        Ok(reply)
    }

    fn shared_memory(&self) -> bool {
        !self.strict
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            // ordering: Relaxed — monitoring snapshot; counters may be mutually
            // skewed by in-flight sends, which callers tolerate.
            messages_sent: self.messages_sent.load(Ordering::Relaxed),
            messages_dropped: self.messages_dropped.load(Ordering::Relaxed),
            pull_round_trips: self.pull_round_trips.load(Ordering::Relaxed),
            wire_bytes: self.wire_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_graph::Graph;

    fn table(machines: usize) -> PartitionedVertexTable {
        let g = Arc::new(
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]).unwrap(),
        );
        PartitionedVertexTable::new(g.clone(), g.vertices().collect(), machines)
    }

    #[test]
    fn send_and_try_recv_are_fifo_per_machine() {
        let t = InProcTransport::new(2, false, 0);
        t.send(0, 1, EngineMsg::StealAck { seq: 1 }).unwrap();
        t.send(0, 1, EngineMsg::StealAck { seq: 2 }).unwrap();
        assert_eq!(t.try_recv(0), None);
        let first = t.try_recv(1).unwrap();
        assert_eq!(first.from, 0);
        assert_eq!(first.msg, EngineMsg::StealAck { seq: 1 });
        assert_eq!(t.try_recv(1).unwrap().msg, EngineMsg::StealAck { seq: 2 });
        assert_eq!(t.try_recv(1), None);
        assert!(matches!(
            t.send(0, 7, EngineMsg::Shutdown),
            Err(TransportError::Closed)
        ));
    }

    #[test]
    fn strict_pull_round_trips_the_wire_form() {
        let t = InProcTransport::new(2, true, 0);
        assert!(!t.shared_memory());
        let tbl = table(2);
        t.bind(&tbl);
        let v = VertexId::new(1);
        let reply = t.pull(1, 0, &[v], Duration::from_millis(10)).unwrap();
        assert_eq!(reply.len(), 1);
        assert_eq!(reply[0].0, v);
        assert_eq!(reply[0].1.as_slice(), tbl.adjacency(v));
        let stats = t.stats();
        assert_eq!(stats.pull_round_trips, 1);
        assert!(stats.wire_bytes > 0, "strict mode must serialise");
    }

    #[test]
    fn fast_path_pull_serves_without_serialising() {
        let t = InProcTransport::new(2, false, 0);
        assert!(t.shared_memory());
        let tbl = table(2);
        t.bind(&tbl);
        let reply = t
            .pull(1, 0, &[VertexId::new(0)], Duration::from_millis(10))
            .unwrap();
        assert_eq!(reply[0].1.as_slice(), tbl.adjacency(VertexId::new(0)));
        assert_eq!(t.stats().wire_bytes, 0);
    }

    #[test]
    fn armed_drops_surface_as_timeouts_then_clear() {
        let t = InProcTransport::new(2, true, 2);
        let tbl = table(2);
        t.bind(&tbl);
        let v = [VertexId::new(2)];
        let timeout = Duration::from_millis(5);
        assert_eq!(t.pull(1, 0, &v, timeout), Err(TransportError::Timeout));
        assert_eq!(t.pull(1, 0, &v, timeout), Err(TransportError::Timeout));
        assert!(t.pull(1, 0, &v, timeout).is_ok(), "drops must clear");
        assert_eq!(t.stats().messages_dropped, 2);
    }

    #[test]
    fn factory_builds_the_configured_flavour() {
        let strict = TransportFactory::strict().with_pull_drops(2);
        assert_eq!(
            strict,
            TransportFactory::InProc {
                strict: true,
                drop_first_pulls: 2
            }
        );
        assert_ne!(TransportFactory::in_proc(), TransportFactory::strict());
        let sim = TransportFactory::Sim(SimConfig::new(3));
        assert_eq!(sim.clone().with_pull_drops(2), sim);
    }
}
