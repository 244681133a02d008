//! Backend-equivalence tests for the per-task bitset-row policy
//! (`IndexSpec`): the serial and parallel backends must produce
//! **byte-identical** result sets whether task subgraphs carry no rows, the
//! automatic choice, or a row for every vertex — rows may only change how
//! fast edge queries run, never what is mined.

use qcm::prelude::*;
use qcm_sync::Arc;

fn datasets() -> Vec<Arc<qcm::graph::Graph>> {
    let tiny = qcm::gen::datasets::tiny_test_dataset(7);
    let planted = qcm_bench_dataset(&qcm::gen::datasets::cx_gse1730());
    vec![Arc::new(tiny.graph), Arc::new(planted)]
}

/// A strongly reduced planted dataset (a few hundred vertices) so the matrix
/// of backends × index specs below stays fast.
fn qcm_bench_dataset(spec: &qcm::gen::DatasetSpec) -> qcm::graph::Graph {
    let mut spec = spec.clone();
    spec.num_vertices = spec.num_vertices.min(300);
    spec.max_degree = spec.max_degree.min(40.0);
    spec.planted_sizes.truncate(2);
    spec.generate().graph
}

fn run(graph: &Arc<qcm::graph::Graph>, backend: Backend, index: IndexSpec) -> Vec<Vec<u32>> {
    let report = Session::builder()
        .gamma(0.85)
        .min_size(5)
        .backend(backend)
        .neighborhood_index(index)
        .build()
        .expect("valid session")
        .run(graph)
        .expect("run succeeds");
    assert!(report.is_complete());
    report
        .maximal
        .into_sorted_vec()
        .into_iter()
        .map(|set| set.into_iter().map(|v| v.raw()).collect())
        .collect()
}

#[test]
fn serial_results_are_identical_with_index_on_and_off() {
    for graph in datasets() {
        let specs = [
            IndexSpec::Disabled,
            IndexSpec::Auto,
            IndexSpec::Threshold(0),
            IndexSpec::Threshold(4),
        ];
        let reference = run(&graph, Backend::Serial, IndexSpec::Disabled);
        for spec in specs {
            assert_eq!(
                run(&graph, Backend::Serial, spec),
                reference,
                "serial results diverged under {spec:?}"
            );
        }
    }
}

/// Rows may change how a node computes its sets, never which nodes the
/// search visits: on the Enron stand-in every search counter, not just the
/// result set, is the same under every row policy. With no rows a task
/// keeps no two-hop rows either, so each child's extension is cut by a
/// two-hop set built on the spot. Run with every rule, without the diameter
/// rule (no two-hop cut at all) and without the cover vertex (every
/// extension vertex is branched on).
#[test]
fn serial_search_counters_are_identical_with_index_on_and_off() {
    let spec = qcm::gen::datasets::enron();
    let graph = spec.generate().graph;
    let params = MiningParams::new(spec.gamma, spec.min_size);
    for config in [
        PruneConfig::all_enabled(),
        PruneConfig::all_enabled().without("diameter"),
        PruneConfig::all_enabled().without("cover_vertex"),
    ] {
        let mine = |index| {
            SerialMiner::with_config(params, config)
                .with_index(index)
                .mine(&graph)
        };
        let reference = mine(IndexSpec::Disabled);
        assert!(reference.outcome.is_complete());
        assert!(reference.stats.nodes_expanded > 0);
        for spec in [
            IndexSpec::Auto,
            IndexSpec::Threshold(0),
            IndexSpec::Threshold(4),
        ] {
            let out = mine(spec);
            assert_eq!(out.stats, reference.stats, "{config:?} under {spec:?}");
            assert_eq!(out.maximal, reference.maximal, "{config:?} under {spec:?}");
        }
    }
}

#[test]
fn parallel_results_are_identical_with_index_on_and_off() {
    for graph in datasets() {
        let reference = run(&graph, Backend::Serial, IndexSpec::Disabled);
        for spec in [
            IndexSpec::Disabled,
            IndexSpec::Auto,
            IndexSpec::Threshold(0),
        ] {
            // A queued task carries no rows; its mine phase builds them under
            // the policy. Two machines also cover tasks whose subgraph came
            // from remote pulls or went through the codec in a grant.
            for backend in [Backend::parallel(4, 1), Backend::parallel(1, 2)] {
                let parallel = run(&graph, backend.clone(), spec);
                assert_eq!(
                    parallel, reference,
                    "{backend:?} results diverged from serial under {spec:?}"
                );
            }
        }
    }
}

#[test]
fn prepared_graph_runs_match_unprepared_runs() {
    for graph in datasets() {
        let session = Session::builder()
            .gamma(0.85)
            .min_size(5)
            .backend(Backend::parallel(4, 1))
            .build()
            .unwrap();
        let prepared = session.prepare(graph.clone());
        assert!(Arc::ptr_eq(prepared.graph(), &graph));
        let via_prepared = session.run_prepared(&prepared).unwrap();
        let direct = session.run(&graph).unwrap();
        assert_eq!(via_prepared.maximal, direct.maximal);
        // Reuse across runs: same PreparedGraph, second run, same answer.
        let again = session.run_prepared(&prepared).unwrap();
        assert_eq!(again.maximal, direct.maximal);
    }
}
