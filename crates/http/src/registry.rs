//! The service graph registry: named graphs plus path-loaded graphs with
//! stat-based staleness.
//!
//! Loading a graph costs a full file read plus an `O(|V| + |E|)` content
//! hash (the hash keys the result cache, so it cannot be skipped on a cold
//! load). The registry makes repeat submits cheap *and* correct:
//!
//! * a path entry is cached together with the file's `(mtime, len)` stat at
//!   load time — a repeat submit of the same path stats the file (one
//!   syscall) and reuses the resident graph and fingerprint only while both
//!   match, so an edited file is reloaded and re-hashed instead of serving
//!   a stale answer (the previous per-path cache never re-checked the
//!   file);
//! * a named entry (`PUT /v1/graphs/{name}`) pins the graph as loaded —
//!   names are explicit registrations, refreshed by re-`PUT`ting.
//!
//! Path entries are LRU-bounded like every other long-lived structure in
//! the service; in-flight jobs keep their own `Arc`, so eviction never
//! invalidates a running job.
//!
//! [`GraphRegistry`] holds the maps: names, path entries and the paths
//! being loaded. [`SharedRegistry`], what the API layer holds, puts them
//! behind one `qcm_sync::Mutex` that guards only the maps. A resolve takes
//! it twice, briefly: once to look the reference up (name, confinement,
//! stat), and on a miss once more to insert the loaded graph. The read,
//! parse, build and hash in between run with no lock held, so a cold load
//! never stalls another caller's lookup or load. A path loads once however
//! many callers ask for it at once: the first miss records the path as in
//! flight, and later misses wait on that load's own condvar, not on the
//! registry lock, for its graph or its error.

use qcm::prelude::{ApiError, ErrorCode, GraphInfo};
use qcm_graph::{io, Graph};
use qcm_sync::{Arc, Condvar, Mutex};
use std::collections::{BTreeMap, HashMap};
use std::path::{Component, Path, PathBuf};
use std::time::SystemTime;

/// How many distinct path-loaded graphs stay resident at once.
const PATH_CACHE_CAP: usize = 64;

/// A resident graph plus its service-cache fingerprint.
#[derive(Clone, Debug)]
pub struct LoadedGraph {
    /// The graph, shared with any in-flight jobs.
    pub graph: Arc<Graph>,
    /// [`Graph::content_hash`], computed once at load.
    pub fingerprint: u64,
}

struct PathEntry {
    loaded: LoadedGraph,
    mtime: Option<SystemTime>,
    len: u64,
    last_used: u64,
}

/// One path's load in progress. Later misses of the path wait here for its
/// outcome, on the flight's own condvar.
#[derive(Default)]
struct Flight {
    outcome: Mutex<Option<Result<LoadedGraph, ApiError>>>,
    landed: Condvar,
}

impl Flight {
    /// Publishes the load's outcome to every waiter; the first outcome
    /// published stands.
    fn land(&self, outcome: &Result<LoadedGraph, ApiError>) {
        let mut slot = self.outcome.lock();
        if slot.is_none() {
            *slot = Some(outcome.clone());
        }
        drop(slot);
        self.landed.notify_all();
    }

    fn has_landed(&self) -> bool {
        self.outcome.lock().is_some()
    }

    fn wait(&self) -> Result<LoadedGraph, ApiError> {
        let mut slot = self.outcome.lock();
        loop {
            if let Some(outcome) = &*slot {
                return outcome.clone();
            }
            slot = self.landed.wait(slot);
        }
    }
}

/// The first miss of a path: it loads the file, then hands the outcome to
/// [`GraphRegistry::land`].
struct Lead {
    path: String,
    mtime: Option<SystemTime>,
    len: u64,
    tick: u64,
    flight: Arc<Flight>,
}

impl Lead {
    /// The slow part of a cold load: read, parse, build and content-hash.
    fn load(&self) -> Result<LoadedGraph, ApiError> {
        let graph = Arc::new(io::read_auto_file(&self.path).map_err(|e| {
            ApiError::new(
                ErrorCode::UnknownGraph,
                format!("cannot load graph {:?}: {e}", self.path),
            )
        })?);
        Ok(LoadedGraph {
            fingerprint: graph.content_hash(),
            graph,
        })
    }
}

impl Drop for Lead {
    /// A lead that never lands (its load panicked) still answers its
    /// waiters; the next lookup of the path replaces the dead flight.
    fn drop(&mut self) {
        self.flight.land(&Err(ApiError::new(
            ErrorCode::Internal,
            format!("loading graph {:?} did not finish", self.path),
        )));
    }
}

/// What a lookup under the lock found.
enum Lookup {
    /// A registered name, or a path whose cached stat still matches.
    Resident(LoadedGraph),
    /// Another caller is loading the path.
    InFlight(Arc<Flight>),
    /// This caller loads the path.
    Lead(Lead),
}

impl Lookup {
    /// Completes a lookup with no lock held: waits for another caller's
    /// load, or runs this caller's and hands the outcome to `land`, which
    /// takes the lock again to record it.
    fn finish(
        self,
        land: impl FnOnce(Lead, Result<LoadedGraph, ApiError>) -> Result<LoadedGraph, ApiError>,
    ) -> Result<LoadedGraph, ApiError> {
        match self {
            Lookup::Resident(loaded) => Ok(loaded),
            Lookup::InFlight(flight) => flight.wait(),
            Lookup::Lead(lead) => {
                let outcome = lead.load();
                land(lead, outcome)
            }
        }
    }
}

/// The registry's maps, for one owner; [`SharedRegistry`] shares them.
#[derive(Default)]
pub struct GraphRegistry {
    by_path: HashMap<String, PathEntry>,
    named: BTreeMap<String, LoadedGraph>,
    /// Paths whose load is running, each with the flight its waiters share.
    in_flight: HashMap<String, Arc<Flight>>,
    /// When set, every path load must resolve inside this directory;
    /// anything else is rejected before the filesystem is touched. Network
    /// front doors set this so remote callers cannot stat/read arbitrary
    /// server-local files (and cannot use the error as a file-existence
    /// oracle outside the designated graph directory).
    root: Option<PathBuf>,
    tick: u64,
    loads: u64,
}

impl GraphRegistry {
    /// Confines path loading to `root` (canonicalised when possible, so
    /// prefix checks are not fooled by `.`/symlinked spellings of the root).
    pub fn set_root(&mut self, root: PathBuf) {
        self.root = Some(root.canonicalize().unwrap_or(root));
    }
    /// Resolves a graph reference: a registered name first, else a
    /// server-local file path.
    pub fn resolve(&mut self, graph_ref: &str) -> Result<LoadedGraph, ApiError> {
        self.lookup(graph_ref)?
            .finish(|lead, outcome| self.land(lead, outcome))
    }

    /// Registers `name` as the graph at `path` (loaded through the same
    /// stat-aware path cache) and returns its description.
    pub fn register(&mut self, name: &str, path: &str) -> Result<GraphInfo, ApiError> {
        check_name(name)?;
        let loaded = self
            .lookup_path(path)?
            .finish(|lead, outcome| self.land(lead, outcome))?;
        Ok(self.name(name, loaded))
    }

    /// The registered (named) graphs, in name order.
    pub fn list(&self) -> Vec<GraphInfo> {
        self.named
            .iter()
            .map(|(name, loaded)| describe(name, loaded))
            .collect()
    }

    /// How many actual file loads (read + hash) have happened — the number
    /// that stays flat across repeat submits of an unchanged path.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Resolves a raw request path against the configured root: relative
    /// paths are joined under it, absolute paths must already be inside it,
    /// and `..` segments are rejected outright. Purely lexical — nothing is
    /// touched on disk for a rejected path.
    fn confine(&self, raw: &str) -> Result<PathBuf, ApiError> {
        let path = Path::new(raw);
        let Some(root) = &self.root else {
            return Ok(path.to_path_buf());
        };
        let outside = || {
            ApiError::new(
                ErrorCode::UnknownGraph,
                format!("graph path {raw:?} is outside the configured graph root"),
            )
        };
        if path.components().any(|c| matches!(c, Component::ParentDir)) {
            return Err(outside());
        }
        let resolved = if path.is_absolute() {
            path.to_path_buf()
        } else {
            root.join(path)
        };
        if !resolved.starts_with(root) {
            return Err(outside());
        }
        Ok(resolved)
    }

    fn lookup(&mut self, graph_ref: &str) -> Result<Lookup, ApiError> {
        match self.named.get(graph_ref) {
            Some(entry) => Ok(Lookup::Resident(entry.clone())),
            None => self.lookup_path(graph_ref),
        }
    }

    /// Confines and stats `raw`, then serves its fresh entry, joins the
    /// load in flight, or makes this caller the path's lead.
    fn lookup_path(&mut self, raw: &str) -> Result<Lookup, ApiError> {
        let path = self.confine(raw)?.to_string_lossy().into_owned();
        self.tick += 1;
        let tick = self.tick;
        let meta = std::fs::metadata(&path).map_err(|e| {
            ApiError::new(
                ErrorCode::UnknownGraph,
                format!("cannot stat {path:?}: {e}"),
            )
        })?;
        let (mtime, len) = (meta.modified().ok(), meta.len());
        if let Some(entry) = self.by_path.get_mut(&path) {
            if entry.mtime == mtime && entry.len == len {
                entry.last_used = tick;
                return Ok(Lookup::Resident(entry.loaded.clone()));
            }
            // Stale: the file changed since it was cached. Fall through and
            // reload (landing the load overwrites this entry).
        }
        if let Some(flight) = self.in_flight.get(&path).filter(|f| !f.has_landed()) {
            return Ok(Lookup::InFlight(flight.clone()));
        }
        let flight = Arc::new(Flight::default());
        self.in_flight.insert(path.clone(), flight.clone());
        Ok(Lookup::Lead(Lead {
            path,
            mtime,
            len,
            tick,
            flight,
        }))
    }

    /// Records a lead's outcome and answers its waiters with it. A loaded
    /// graph becomes the path's entry; a failure caches nothing.
    fn land(
        &mut self,
        lead: Lead,
        outcome: Result<LoadedGraph, ApiError>,
    ) -> Result<LoadedGraph, ApiError> {
        self.in_flight.remove(&lead.path);
        if let Ok(loaded) = &outcome {
            self.loads += 1;
            if self.by_path.len() >= PATH_CACHE_CAP && !self.by_path.contains_key(&lead.path) {
                if let Some(victim) = self
                    .by_path
                    .iter()
                    .min_by_key(|(_, entry)| entry.last_used)
                    .map(|(k, _)| k.clone())
                {
                    self.by_path.remove(&victim);
                }
            }
            self.by_path.insert(
                lead.path.clone(),
                PathEntry {
                    loaded: loaded.clone(),
                    mtime: lead.mtime,
                    len: lead.len,
                    last_used: lead.tick,
                },
            );
        }
        lead.flight.land(&outcome);
        outcome
    }

    fn name(&mut self, name: &str, loaded: LoadedGraph) -> GraphInfo {
        let info = describe(name, &loaded);
        self.named.insert(name.to_string(), loaded);
        info
    }
}

/// A [`GraphRegistry`] shared by every request handler: its lock is held
/// only to read and write the maps, never across a file load (see the
/// module docs).
#[derive(Default)]
pub struct SharedRegistry {
    registry: Mutex<GraphRegistry>,
}

impl SharedRegistry {
    /// Confines path loading to `root`, as [`GraphRegistry::set_root`].
    pub fn set_root(&self, root: PathBuf) {
        self.registry.lock().set_root(root);
    }

    /// Resolves a graph reference, as [`GraphRegistry::resolve`], loading a
    /// cold path with no lock held and at most once at a time.
    pub fn resolve(&self, graph_ref: &str) -> Result<LoadedGraph, ApiError> {
        let lookup = self.registry.lock().lookup(graph_ref)?;
        lookup.finish(|lead, outcome| self.registry.lock().land(lead, outcome))
    }

    /// Registers `name` as the graph at `path`, as
    /// [`GraphRegistry::register`], loading it like [`SharedRegistry::resolve`].
    pub fn register(&self, name: &str, path: &str) -> Result<GraphInfo, ApiError> {
        check_name(name)?;
        let lookup = self.registry.lock().lookup_path(path)?;
        let loaded = lookup.finish(|lead, outcome| self.registry.lock().land(lead, outcome))?;
        Ok(self.registry.lock().name(name, loaded))
    }

    /// The registered (named) graphs, in name order.
    pub fn list(&self) -> Vec<GraphInfo> {
        self.registry.lock().list()
    }

    /// How many actual file loads (read + hash) have happened.
    pub fn loads(&self) -> u64 {
        self.registry.lock().loads()
    }
}

fn check_name(name: &str) -> Result<(), ApiError> {
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c))
    {
        return Err(ApiError::bad_request(format!(
            "invalid graph name {name:?} (allowed: ASCII alphanumerics, `-`, `_`, `.`)"
        )));
    }
    Ok(())
}

fn describe(name: &str, loaded: &LoadedGraph) -> GraphInfo {
    GraphInfo {
        name: name.to_string(),
        num_vertices: loaded.graph.num_vertices(),
        num_edges: loaded.graph.num_edges(),
        fingerprint: loaded.fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_sync::thread::{self, JoinHandle};

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qcm_http_reg_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_graph(path: &std::path::Path, seed: u64) {
        let dataset = qcm_gen::datasets::tiny_test_dataset(seed);
        io::write_edge_list_file(&dataset.graph, path).unwrap();
    }

    #[test]
    fn repeat_resolves_of_an_unchanged_path_skip_the_load_and_hash() {
        let dir = scratch_dir("hot");
        let path = dir.join("g.txt");
        write_graph(&path, 5);
        let path = path.to_string_lossy().to_string();

        let mut registry = GraphRegistry::default();
        let first = registry.resolve(&path).unwrap();
        assert_eq!(registry.loads(), 1);
        let second = registry.resolve(&path).unwrap();
        assert_eq!(registry.loads(), 1, "unchanged file must not reload");
        assert_eq!(first.fingerprint, second.fingerprint);
        assert!(Arc::ptr_eq(&first.graph, &second.graph));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn an_edited_file_is_reloaded_and_rehashed() {
        let dir = scratch_dir("stale");
        let path = dir.join("g.txt");
        write_graph(&path, 5);
        let path_str = path.to_string_lossy().to_string();

        let mut registry = GraphRegistry::default();
        let old = registry.resolve(&path_str).unwrap();
        // A different dataset has a different length and content.
        write_graph(&path, 77);
        let new = registry.resolve(&path_str).unwrap();
        assert_eq!(registry.loads(), 2, "changed file must reload");
        assert_ne!(old.fingerprint, new.fingerprint);
        // And the refreshed entry is hot again.
        registry.resolve(&path_str).unwrap();
        assert_eq!(registry.loads(), 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_configured_root_confines_path_loading() {
        let dir = scratch_dir("root");
        let path = dir.join("g.txt");
        write_graph(&path, 5);
        // A decoy outside the root that genuinely exists.
        let outside_dir = scratch_dir("root_outside");
        let outside = outside_dir.join("g.txt");
        write_graph(&outside, 5);

        let mut registry = GraphRegistry::default();
        registry.set_root(dir.clone());

        // Relative paths resolve under the root; absolute paths inside the
        // root also work.
        assert!(registry.resolve("g.txt").is_ok());
        let absolute = dir.canonicalize().unwrap().join("g.txt");
        assert!(registry.resolve(&absolute.to_string_lossy()).is_ok());

        // Anything outside — absolute, `..`-escaping, or an existing file —
        // is a typed error, with no hint whether the target exists.
        for escape in [
            outside.to_string_lossy().to_string(),
            "../g.txt".to_string(),
            format!("{}/../root_outside_x/g.txt", dir.to_string_lossy()),
            "/etc/hostname".to_string(),
        ] {
            let err = registry.resolve(&escape).unwrap_err();
            assert_eq!(err.code, ErrorCode::UnknownGraph, "{escape}");
            assert!(
                err.message.contains("outside the configured graph root"),
                "{}",
                err.message
            );
        }
        // Registration goes through the same confinement.
        assert_eq!(
            registry
                .register("evil", &outside.to_string_lossy())
                .unwrap_err()
                .code,
            ErrorCode::UnknownGraph
        );
        std::fs::remove_dir_all(dir).ok();
        std::fs::remove_dir_all(outside_dir).ok();
    }

    #[test]
    fn names_register_list_and_resolve() {
        let dir = scratch_dir("named");
        let path = dir.join("g.txt");
        write_graph(&path, 9);
        let path = path.to_string_lossy().to_string();

        let mut registry = GraphRegistry::default();
        let info = registry.register("prod", &path).unwrap();
        assert_eq!(info.name, "prod");
        assert!(info.num_vertices > 0);
        let listed = registry.list();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0], info);
        let resolved = registry.resolve("prod").unwrap();
        assert_eq!(resolved.fingerprint, info.fingerprint);
        // Invalid names and missing files are typed errors.
        assert_eq!(
            registry.register("bad name", &path).unwrap_err().code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            registry.resolve("/no/such/file").unwrap_err().code,
            ErrorCode::UnknownGraph
        );
        std::fs::remove_dir_all(dir).ok();
    }

    /// Takes `path`'s miss by hand and keeps its load pending: the seam that
    /// holds a load in flight for as long as a test needs.
    fn take_lead(shared: &SharedRegistry, path: &str) -> Lead {
        match shared.registry.lock().lookup(path).unwrap() {
            Lookup::Lead(lead) => lead,
            _ => panic!("a cold path must be handed out to load, not loaded under the lock"),
        }
    }

    /// Starts `n` resolves of `lead`'s path and returns once each has joined
    /// its flight, the registry lock free again.
    fn park_waiters(
        shared: &Arc<SharedRegistry>,
        lead: &Lead,
        n: usize,
    ) -> Vec<JoinHandle<Result<LoadedGraph, ApiError>>> {
        let waiters: Vec<_> = (0..n)
            .map(|_| {
                let (shared, path) = (shared.clone(), lead.path.clone());
                thread::spawn(move || shared.resolve(&path))
            })
            .collect();
        // A parked waiter holds the flight, beside the in-flight map and the
        // lead, and has let go of the registry lock: one that kept it while
        // waiting would hold it until the load lands.
        let mut spins = 0u32;
        while Arc::strong_count(&lead.flight) < 2 + n || shared.registry.try_lock().is_none() {
            assert!(
                !waiters.iter().any(|w| w.is_finished()),
                "a concurrent miss must wait for the load in flight, not load again"
            );
            spins += 1;
            assert!(
                spins < 10_000_000,
                "the waiters did not park on the flight with the registry lock free"
            );
            thread::yield_now();
        }
        waiters
    }

    fn land(shared: &SharedRegistry, lead: Lead) -> Result<LoadedGraph, ApiError> {
        let outcome = lead.load();
        shared.registry.lock().land(lead, outcome)
    }

    #[test]
    fn a_load_in_flight_blocks_neither_a_cached_path_nor_another_load() {
        let dir = scratch_dir("scope");
        let [cold, cached, other] = ["cold.txt", "cached.txt", "other.txt"].map(|name| {
            let path = dir.join(name);
            write_graph(&path, 5);
            path.to_string_lossy().into_owned()
        });
        let shared = Arc::new(SharedRegistry::default());
        let resident = shared.resolve(&cached).unwrap();

        let lead = take_lead(&shared, &cold);
        let waiters = park_waiters(&shared, &lead, 1);
        let again = shared.resolve(&cached).unwrap();
        assert!(Arc::ptr_eq(&again.graph, &resident.graph));
        shared.resolve(&other).unwrap();
        assert_eq!(
            shared.loads(),
            2,
            "the other path loaded beside the pending one"
        );

        let landed = land(&shared, lead).unwrap();
        for waiter in waiters {
            assert!(Arc::ptr_eq(
                &waiter.join().unwrap().unwrap().graph,
                &landed.graph
            ));
        }
        assert_eq!(shared.loads(), 3);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn concurrent_misses_of_one_path_load_it_once() {
        let dir = scratch_dir("flight");
        let path = dir.join("g.txt");
        write_graph(&path, 5);
        let path = path.to_string_lossy().to_string();

        let shared = Arc::new(SharedRegistry::default());
        let lead = take_lead(&shared, &path);
        let waiters = park_waiters(&shared, &lead, 4);
        let landed = land(&shared, lead).unwrap();
        for waiter in waiters {
            let loaded = waiter.join().unwrap().unwrap();
            assert!(Arc::ptr_eq(&loaded.graph, &landed.graph));
            assert_eq!(loaded.fingerprint, landed.fingerprint);
        }
        assert_eq!(shared.loads(), 1);
        let later = shared.resolve(&path).unwrap();
        assert!(Arc::ptr_eq(&later.graph, &landed.graph));
        assert_eq!(shared.loads(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_failed_load_answers_every_waiter_and_caches_nothing() {
        let dir = scratch_dir("failed");
        // A directory stats like a file but does not read as one.
        let path = dir.join("g.txt");
        std::fs::create_dir_all(&path).unwrap();
        let path_str = path.to_string_lossy().to_string();

        let shared = Arc::new(SharedRegistry::default());
        let lead = take_lead(&shared, &path_str);
        let waiters = park_waiters(&shared, &lead, 3);
        let err = land(&shared, lead).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownGraph);
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap().unwrap_err(), err);
        }
        {
            let registry = shared.registry.lock();
            assert!(registry.by_path.is_empty(), "a failed load was cached");
            assert!(
                registry.in_flight.is_empty(),
                "a failed load stayed in flight"
            );
        }
        assert_eq!(shared.loads(), 0);

        // Once the path holds a graph, the next resolve loads it.
        std::fs::remove_dir(&path).unwrap();
        write_graph(&path, 5);
        shared.resolve(&path_str).unwrap();
        assert_eq!(shared.loads(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_lead_that_never_lands_frees_its_waiters_and_its_path() {
        let dir = scratch_dir("dropped");
        let path = dir.join("g.txt");
        write_graph(&path, 5);
        let path = path.to_string_lossy().to_string();

        let shared = Arc::new(SharedRegistry::default());
        let lead = take_lead(&shared, &path);
        let waiters = park_waiters(&shared, &lead, 2);
        drop(lead);
        for waiter in waiters {
            assert_eq!(
                waiter.join().unwrap().unwrap_err().code,
                ErrorCode::Internal
            );
        }
        shared.resolve(&path).unwrap();
        assert_eq!(shared.loads(), 1);
        std::fs::remove_dir_all(dir).ok();
    }
}
