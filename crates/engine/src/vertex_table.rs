//! The partitioned vertex table and the remote-vertex cache.
//!
//! G-thinker hash-partitions the input graph's vertices (with their adjacency
//! lists) across machines; the local vertex tables of all machines together
//! form a distributed key-value store, and each machine keeps a bounded
//! *remote vertex cache* of adjacency lists it had to fetch from other
//! machines (Figure 8). In this in-process simulation the graph lives in
//! shared memory, but ownership, remote-fetch counting and cache behaviour
//! are preserved so the communication-volume and cache-pressure aspects of
//! the design remain observable.

use crate::transport::{Transport, TransportError};
use qcm_graph::{Graph, VertexId};
use qcm_sync::atomic::{AtomicU64, Ordering};
use qcm_sync::Arc;
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// An adjacency list held by a task frontier.
///
/// Locally owned vertices borrow straight through the shared graph (zero
/// copies, zero allocation — an `Arc` bump on the graph handle); lists that
/// crossed the transport (remote fetches, cache hits, decoded wire payloads)
/// are owned. Callers only ever see [`AdjList::as_slice`], so the two shapes
/// are interchangeable.
#[derive(Clone, Debug)]
pub enum AdjList {
    /// Γ(v) read in place from the shared in-process graph.
    Shared(Arc<Graph>, VertexId),
    /// An owned (fetched or decoded) adjacency list.
    Owned(Arc<Vec<VertexId>>),
}

impl AdjList {
    /// The neighbor ids.
    #[inline]
    pub fn as_slice(&self) -> &[VertexId] {
        match self {
            AdjList::Shared(graph, v) => graph.neighbors(*v),
            AdjList::Owned(list) => list,
        }
    }

    /// Number of neighbors.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl From<Arc<Vec<VertexId>>> for AdjList {
    fn from(list: Arc<Vec<VertexId>>) -> Self {
        AdjList::Owned(list)
    }
}

impl From<Vec<VertexId>> for AdjList {
    fn from(list: Vec<VertexId>) -> Self {
        AdjList::Owned(Arc::new(list))
    }
}

/// Hash partitioning of vertices over machines plus access to their
/// adjacency lists.
///
/// The table is G-thinker's key–value store of adjacency lists and nothing
/// more: it serves Γ(v) from the shared graph's CSR. Edge queries are never
/// answered here — a task answers them from the rows of its own
/// `LocalGraph`, built from the lists it pulled.
///
/// The vertices the table *holds* — the keys a loader handed over, which the
/// machines spawn from — are a sorted list of the graph's ids, not
/// necessarily all of them: the quasi-clique miners load the k-core only.
#[derive(Clone)]
pub struct PartitionedVertexTable {
    graph: Arc<Graph>,
    vertices: Arc<[VertexId]>,
    num_machines: usize,
}

impl PartitionedVertexTable {
    /// Creates the table holding `vertices` (sorted, distinct ids of
    /// `graph`), partitioned across `num_machines`.
    pub fn new(graph: Arc<Graph>, vertices: Vec<VertexId>, num_machines: usize) -> Self {
        assert!(num_machines >= 1);
        assert!(
            vertices.windows(2).all(|w| w[0] < w[1]),
            "the vertex list must be sorted and distinct"
        );
        assert!(
            vertices.last().map_or(0, |v| v.index() + 1) <= graph.num_vertices(),
            "the vertex list names an id outside the graph"
        );
        PartitionedVertexTable {
            graph,
            vertices: vertices.into(),
            num_machines,
        }
    }

    /// The vertices the table holds, in increasing id order.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// The machine that owns vertex `v` (hash partitioning by id).
    #[inline]
    pub fn owner(&self, v: VertexId) -> usize {
        (v.raw() as usize) % self.num_machines
    }

    /// True if `machine` owns `v`.
    #[inline]
    pub fn is_local(&self, machine: usize, v: VertexId) -> bool {
        self.owner(v) == machine
    }

    /// The held vertices owned by `machine`, in increasing id order.
    pub fn owned_vertices(&self, machine: usize) -> Vec<VertexId> {
        let vertices = self.vertices.iter().copied();
        vertices.filter(|&v| self.owner(v) == machine).collect()
    }

    /// The adjacency list Γ(v) (borrowed from the shared graph).
    #[inline]
    pub fn adjacency(&self, v: VertexId) -> &[VertexId] {
        self.graph.neighbors(v)
    }

    /// The underlying shared graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Number of machines in the partitioning.
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }
}

/// Counters describing remote fetches and cache behaviour.
#[derive(Debug, Default)]
pub struct FetchMetrics {
    /// Adjacency lists served from the machine's own partition.
    pub local_reads: AtomicU64,
    /// Adjacency lists fetched from another machine (cache miss).
    pub remote_fetches: AtomicU64,
    /// Bytes transferred for remote fetches (4 bytes per neighbor id).
    pub remote_bytes: AtomicU64,
    /// Remote requests served from the cache.
    pub cache_hits: AtomicU64,
    /// Cache evictions.
    pub cache_evictions: AtomicU64,
    /// Pull attempts that timed out and were retried.
    pub pull_retries: AtomicU64,
    /// Pulls abandoned after exhausting their retry budget.
    pub pull_failures: AtomicU64,
}

impl FetchMetrics {
    /// Adds the accumulated scratch counters and resets the scratch.
    pub fn absorb(&self, scratch: &mut FetchScratch) {
        // ordering: Relaxed — machine-wide fetch statistics, batched from
        // per-task scratch; read after workers join. A zero adds nothing and
        // must not touch the shared cache line.
        let add = |counter: &AtomicU64, n: u64| {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        };
        add(&self.local_reads, scratch.local_reads);
        add(&self.remote_fetches, scratch.remote_fetches);
        add(&self.remote_bytes, scratch.remote_bytes);
        add(&self.cache_hits, scratch.cache_hits);
        add(&self.cache_evictions, scratch.cache_evictions);
        add(&self.pull_retries, scratch.pull_retries);
        add(&self.pull_failures, scratch.pull_failures);
        *scratch = FetchScratch::default();
    }
}

/// A bounded FIFO cache of remote adjacency lists (per machine).
#[derive(Debug)]
pub struct RemoteVertexCache {
    capacity: usize,
    map: HashMap<VertexId, Arc<Vec<VertexId>>>,
    order: VecDeque<VertexId>,
}

impl RemoteVertexCache {
    /// Creates a cache holding at most `capacity` adjacency lists.
    pub fn new(capacity: usize) -> Self {
        RemoteVertexCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Number of cached lists.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a cached adjacency list.
    pub fn get(&self, v: VertexId) -> Option<Arc<Vec<VertexId>>> {
        self.map.get(&v).cloned()
    }

    /// Inserts an adjacency list, evicting the oldest entry if full. Returns
    /// the number of evictions performed (0 or 1).
    pub fn insert(&mut self, v: VertexId, adj: Arc<Vec<VertexId>>) -> u64 {
        if self.map.contains_key(&v) {
            return 0;
        }
        let mut evictions = 0;
        while self.map.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
                evictions += 1;
            } else {
                break;
            }
        }
        self.map.insert(v, adj);
        self.order.push_back(v);
        evictions
    }
}

/// Per-worker scratch counters for fetch accounting.
///
/// A task pulls thousands of adjacency lists; updating the machine-wide
/// atomic counters on every single fetch would make the shared cache line the
/// hottest memory location in the system and destroy thread scalability.
/// Workers therefore accumulate into this plain struct and fold it in once
/// per task ([`FetchMetrics::absorb`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct FetchScratch {
    /// Adjacency lists served from the machine's own partition.
    pub local_reads: u64,
    /// Adjacency lists fetched from another machine (cache miss).
    pub remote_fetches: u64,
    /// Bytes transferred for remote fetches.
    pub remote_bytes: u64,
    /// Remote requests served from the cache.
    pub cache_hits: u64,
    /// Cache evictions.
    pub cache_evictions: u64,
    /// Pull attempts that timed out and were retried.
    pub pull_retries: u64,
    /// Pulls abandoned after exhausting their retry budget.
    pub pull_failures: u64,
}

/// Per-machine data access façade: local reads go straight to the partition,
/// remote reads go through the cache and then the [`Transport`], with
/// per-attempt timeouts and a bounded retry budget.
pub struct DataService {
    table: PartitionedVertexTable,
    machine: usize,
    cache: qcm_sync::Mutex<RemoteVertexCache>,
    metrics: Arc<FetchMetrics>,
    transport: Arc<dyn Transport>,
    pull_timeout: Duration,
    pull_retries: u32,
}

impl DataService {
    /// Creates the data service of one machine over `transport`.
    pub fn new(
        table: PartitionedVertexTable,
        machine: usize,
        cache_capacity: usize,
        metrics: Arc<FetchMetrics>,
        transport: Arc<dyn Transport>,
        pull_timeout: Duration,
        pull_retries: u32,
    ) -> Self {
        DataService {
            table,
            machine,
            cache: qcm_sync::Mutex::new(RemoteVertexCache::new(cache_capacity)),
            metrics,
            transport,
            pull_timeout,
            pull_retries,
        }
    }

    /// Fetches Γ(v), serving locally owned vertices by borrowing the shared
    /// partition (zero-copy) and remote vertices through the cache and the
    /// transport, accumulating traffic counters into `scratch` (fold them in
    /// with [`DataService::flush`]).
    ///
    /// # Errors
    /// [`TransportError`] when a remote pull exhausts its retry budget — the
    /// engine abandons the task and labels the run
    /// [`qcm_core::RunOutcome::Faulted`].
    pub fn fetch_with(
        &self,
        v: VertexId,
        scratch: &mut FetchScratch,
    ) -> Result<AdjList, TransportError> {
        if self.table.is_local(self.machine, v) {
            scratch.local_reads += 1;
            // Requester and owner share this machine: borrow through the
            // in-proc fast path instead of cloning the adjacency.
            return Ok(AdjList::Shared(self.table.graph().clone(), v));
        }
        if let Some(hit) = self.cache.lock().get(v) {
            scratch.cache_hits += 1;
            return Ok(AdjList::Owned(hit));
        }
        let adj = if self.transport.shared_memory() {
            // Zero-copy transport: owners' partitions are readable in place.
            // The copy below *is* the simulated transfer into this machine's
            // address space, so remote traffic stays measurable.
            Arc::new(self.table.adjacency(v).to_vec())
        } else {
            let mut attempt = 0u32;
            loop {
                match self.transport.pull(
                    self.machine,
                    self.table.owner(v),
                    &[v],
                    self.pull_timeout,
                ) {
                    Ok(mut reply) => match reply.pop() {
                        Some((rv, adj)) if rv == v => break adj,
                        _ => {
                            scratch.pull_failures += 1;
                            return Err(TransportError::Closed);
                        }
                    },
                    Err(TransportError::Timeout) if attempt < self.pull_retries => {
                        attempt += 1;
                        scratch.pull_retries += 1;
                    }
                    Err(err) => {
                        scratch.pull_failures += 1;
                        return Err(err);
                    }
                }
            }
        };
        scratch.remote_fetches += 1;
        scratch.remote_bytes += adj.len() as u64 * 4;
        scratch.cache_evictions += self.cache.lock().insert(v, adj.clone());
        Ok(AdjList::Owned(adj))
    }

    /// Adds the accumulated scratch counters into the machine-wide metrics and
    /// resets the scratch.
    pub fn flush(&self, scratch: &mut FetchScratch) {
        self.metrics.absorb(scratch);
    }

    /// Convenience wrapper around [`DataService::fetch_with`] that flushes the
    /// counters immediately (used by tests and one-off fetches).
    pub fn fetch(&self, v: VertexId) -> Result<AdjList, TransportError> {
        let mut scratch = FetchScratch::default();
        let adj = self.fetch_with(v, &mut scratch);
        self.flush(&mut scratch);
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_graph() -> Arc<Graph> {
        Arc::new(
            Graph::from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]).unwrap(),
        )
    }

    fn all_vertices(g: &Graph) -> Vec<VertexId> {
        g.vertices().collect()
    }

    #[test]
    fn partitioning_covers_all_vertices_once() {
        let g = sample_graph();
        let table = PartitionedVertexTable::new(g.clone(), all_vertices(&g), 3);
        let mut all: Vec<VertexId> = (0..3).flat_map(|m| table.owned_vertices(m)).collect();
        all.sort_unstable();
        assert_eq!(all, all_vertices(&g));
        for v in table.graph().vertices() {
            assert!(table.is_local(table.owner(v), v));
        }
    }

    #[test]
    fn partitioning_covers_the_held_vertices_only() {
        let held: Vec<VertexId> = [1, 2, 5, 7].map(VertexId::new).to_vec();
        let table = PartitionedVertexTable::new(sample_graph(), held.clone(), 3);
        assert_eq!(table.vertices(), held.as_slice());
        assert_eq!(table.owned_vertices(0), vec![]);
        assert_eq!(table.owned_vertices(1), [1, 7].map(VertexId::new).to_vec());
        assert_eq!(table.owned_vertices(2), [2, 5].map(VertexId::new).to_vec());
        // Every vertex of the graph is still served.
        assert_eq!(table.adjacency(VertexId::new(3)).len(), 2);
    }

    #[test]
    #[should_panic(expected = "sorted and distinct")]
    fn an_unsorted_vertex_list_is_rejected() {
        let held = [2, 1].map(VertexId::new).to_vec();
        let _ = PartitionedVertexTable::new(sample_graph(), held, 2);
    }

    #[test]
    fn adjacency_matches_graph() {
        let g = sample_graph();
        let table = PartitionedVertexTable::new(g.clone(), all_vertices(&g), 2);
        for v in g.vertices() {
            assert_eq!(table.adjacency(v), g.neighbors(v));
        }
    }

    #[test]
    fn cache_evicts_fifo() {
        let mut cache = RemoteVertexCache::new(2);
        assert!(cache.is_empty());
        cache.insert(VertexId::new(1), Arc::new(vec![]));
        cache.insert(VertexId::new(2), Arc::new(vec![]));
        assert_eq!(cache.len(), 2);
        let evicted = cache.insert(VertexId::new(3), Arc::new(vec![]));
        assert_eq!(evicted, 1);
        assert!(cache.get(VertexId::new(1)).is_none());
        assert!(cache.get(VertexId::new(3)).is_some());
        // Re-inserting an existing key is a no-op.
        assert_eq!(cache.insert(VertexId::new(3), Arc::new(vec![])), 0);
    }

    /// A data service of machine 0 of 2, pulling through an in-process
    /// transport (`strict`, with `drops` armed pull drops).
    fn service_with(
        strict: bool,
        drops: u32,
        cache_capacity: usize,
        pull_retries: u32,
    ) -> (DataService, Arc<FetchMetrics>) {
        let g = sample_graph();
        let table = PartitionedVertexTable::new(g.clone(), all_vertices(&g), 2);
        let metrics = Arc::new(FetchMetrics::default());
        let transport = Arc::new(crate::transport::InProcTransport::new(2, strict, drops));
        transport.bind(&table);
        let service = DataService::new(
            table,
            0,
            cache_capacity,
            metrics.clone(),
            transport,
            Duration::from_millis(50),
            pull_retries,
        );
        (service, metrics)
    }

    #[test]
    fn data_service_counts_local_and_remote() {
        let (service, metrics) = service_with(false, 0, 10, 0);
        // Vertex 0 is owned by machine 0 (0 % 2), vertex 1 by machine 1.
        let local = service.fetch(VertexId::new(0)).unwrap();
        assert_eq!(local.len(), 1);
        assert!(
            matches!(local, AdjList::Shared(..)),
            "local fetches must borrow, not clone"
        );
        assert_eq!(metrics.local_reads.load(Ordering::Relaxed), 1);
        let remote = service.fetch(VertexId::new(1)).unwrap();
        assert_eq!(remote.len(), 2);
        assert_eq!(metrics.remote_fetches.load(Ordering::Relaxed), 1);
        assert!(metrics.remote_bytes.load(Ordering::Relaxed) > 0);
        // Second fetch of the same remote vertex hits the cache.
        let _ = service.fetch(VertexId::new(1)).unwrap();
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.remote_fetches.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn tiny_cache_records_evictions() {
        let (service, metrics) = service_with(false, 0, 1, 0);
        // Vertices 1, 3, 5 are remote to machine 0; cache holds one entry.
        let _ = service.fetch(VertexId::new(1)).unwrap();
        let _ = service.fetch(VertexId::new(3)).unwrap();
        let _ = service.fetch(VertexId::new(5)).unwrap();
        assert!(metrics.cache_evictions.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn strict_transport_serves_identical_lists() {
        let g = sample_graph();
        let (service, _) = service_with(true, 0, 10, 0);
        for v in g.vertices() {
            assert_eq!(service.fetch(v).unwrap().as_slice(), g.neighbors(v));
        }
    }

    #[test]
    fn dropped_pulls_retry_then_fail_when_budget_is_exhausted() {
        // Two armed drops, one retry: the first remote pull burns the retry
        // on drop #1, hits drop #2 and fails.
        let (service, metrics) = service_with(true, 2, 10, 1);
        let err = service.fetch(VertexId::new(1)).unwrap_err();
        assert_eq!(err, TransportError::Timeout);
        assert_eq!(metrics.pull_retries.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.pull_failures.load(Ordering::Relaxed), 1);
        // The drops are spent; the next pull succeeds after the failure.
        assert!(service.fetch(VertexId::new(1)).is_ok());
    }
}
