//! Model-checked schedules of the graph registry's single-flight load.
//!
//! [`SharedRegistry`] looks a path up under its lock, loads a miss with no
//! lock held, and makes later misses of the same path wait on that load's
//! condvar. These scenarios explore ≥1 000 schedules each of two callers
//! missing one path; failures replay with `QCM_MC_SEED=<seed>`.

#![cfg(feature = "model-check")]

use qcm::prelude::{ApiError, ErrorCode};
use qcm_http::registry::LoadedGraph;
use qcm_http::SharedRegistry;
use qcm_sync::model::{explore, ModelConfig};
use qcm_sync::{thread, Arc};
use std::path::{Path, PathBuf};

const SCHEDULES: usize = 1_000;

/// Explores `SCHEDULES` seeded schedules plus any `QCM_MC_EXTRA_SEED`.
fn run(name: &str, f: impl Fn() + Sync) {
    let report = explore(name, SCHEDULES, ModelConfig::default(), &f);
    assert!(report.schedules >= SCHEDULES);
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qcm_http_model_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two threads resolve `path` on a fresh registry at once; returns both
/// answers and the registry.
fn race(path: &Path) -> (Vec<Result<LoadedGraph, ApiError>>, Arc<SharedRegistry>) {
    let registry = Arc::new(SharedRegistry::default());
    let path = path.to_string_lossy().into_owned();
    let callers: Vec<_> = (0..2)
        .map(|_| {
            let (registry, path) = (registry.clone(), path.clone());
            thread::spawn(move || registry.resolve(&path))
        })
        .collect();
    let answers = callers.into_iter().map(|c| c.join().unwrap()).collect();
    (answers, registry)
}

/// Two callers miss one path: it loads once, both get the same graph, and
/// whoever waits is woken.
#[test]
fn two_misses_of_one_path_load_it_once() {
    let dir = scratch_dir("once");
    let path = dir.join("g.txt");
    // A 4-clique plus a pendant: small enough to load in every schedule.
    std::fs::write(&path, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n").unwrap();
    run("two_misses_of_one_path_load_it_once", || {
        let (answers, registry) = race(&path);
        let [a, b] = [&answers[0], &answers[1]].map(|r| r.as_ref().expect("the file loads"));
        assert!(Arc::ptr_eq(&a.graph, &b.graph), "two copies of one file");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(registry.loads(), 1, "the path loaded twice");
    });
    std::fs::remove_dir_all(dir).ok();
}

/// A failing load wakes its waiter with the same typed error and caches
/// nothing: a later resolve tries the file again.
#[test]
fn a_failing_load_wakes_its_waiters() {
    let dir = scratch_dir("failing");
    // A directory stats like a file but does not read as one.
    let path = dir.join("g.txt");
    std::fs::create_dir_all(&path).unwrap();
    run("a_failing_load_wakes_its_waiters", || {
        let (answers, registry) = race(&path);
        for answer in &answers {
            let err = answer.as_ref().expect_err("a directory is not a graph");
            assert_eq!(err.code, ErrorCode::UnknownGraph);
        }
        let again = registry.resolve(&path.to_string_lossy()).unwrap_err();
        assert_eq!(again.code, ErrorCode::UnknownGraph);
        assert_eq!(registry.loads(), 0);
    });
    std::fs::remove_dir_all(dir).ok();
}
